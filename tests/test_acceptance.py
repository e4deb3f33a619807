"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. These are desk-scale
reproductions of the published simulation studies plus exactness and
equivalence checks; the whole module takes roughly 10 minutes.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import sjive
from sjive.bench import run_benchmark
from sjive.core import FitConfig, Ranks, fit
from sjive.linalg import BLAS_THREAD_VARS
from sjive.metrics import component_inference
from sjive.metrics import test_mse as mse_of
from sjive.predict import estimate_scores, predict
from sjive.simulate import SimConfig, eigen_signal_report, generate, train_test_split

from oracles import (
    inference_oracle,
    max_principal_angle,
    reference_unsupervised_decomposition,
)

pytestmark = pytest.mark.acceptance


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_eta_one_oracle_equivalence():
    worst_obj, worst_angle = 0.0, 0.0
    for seed in range(10):
        cfg = SimConfig(k=2, p=(50, 50), n=50, rank_joint=1, rank_indiv=(1, 1),
                        x_err=0.4, y_err=0.3, seed=seed)
        data, y, _ = generate(cfg)
        fc = FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)), tol=1e-9, max_iter=1000)
        model, report = fit(data, y, fc)
        _, s_j, _, _, trace = reference_unsupervised_decomposition(
            data.blocks, 1, (1, 1), max_iter=1000, tol=1e-9
        )
        worst_obj = max(worst_obj, abs(report.final_objective - trace[-1]))
        worst_angle = max(worst_angle, max_principal_angle(model.joint_scores, s_j))
    ok = worst_obj < 1e-8 and worst_angle < 1e-6
    assert _report(
        1, ok,
        f"eta=1 vs independent unsupervised path over 10 seeds: "
        f"max objective diff {worst_obj:.2e} (<1e-8), "
        f"max principal angle {worst_angle:.2e} (<1e-6)",
    )


def test_criterion_2_noiseless_recovery():
    cfg = SimConfig(k=2, p=(40, 40), n=100, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.0, y_err=0.0, seed=123)
    data, y, truth = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-12, max_iter=5000)
    model, _ = fit(data, y, fc)
    j_est = np.vstack([u @ model.joint_scores for u in model.joint_loadings])
    j_err = float(np.sum((j_est - truth.stacked_joint()) ** 2)
                  / np.sum(truth.stacked_joint() ** 2))
    a_errs = []
    for i in range(2):
        a_est = model.indiv_loadings[i] @ model.indiv_scores[i]
        a_errs.append(float(np.sum((a_est - truth.indiv_structure[i]) ** 2)
                            / np.sum(truth.indiv_structure[i] ** 2)))
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 50)
    half_model, _ = fit(tr_x, tr_y, fc)
    yhat = predict(half_model, estimate_scores(half_model, te_x), standardized=True)
    mse = mse_of(te_y.values, yhat)
    ok = j_err < 1e-4 and max(a_errs) < 1e-4 and mse < 1e-3
    assert _report(
        2, ok,
        f"noiseless recovery: joint {j_err:.2e}, individual "
        f"{max(a_errs):.2e} (<1e-4), held-out half MSE {mse:.2e} (<1e-3)",
    )


@pytest.mark.slow
def test_criterion_3_published_mse_table_desk_scale():
    base = dict(k=2, p=(200, 200), n=200, rank_joint=1, rank_indiv=(1, 1))
    # (a) low noise in X and y
    res_a = run_benchmark(SimConfig(**base, x_err=0.10, y_err=0.10, seed=1000),
                          reps=10, n_test=200, eta=0.5)
    mean_a = res_a.mean_mses()["sjive"]
    ok_a = abs(mean_a - 0.1068) <= 0.03
    # (b) mid X noise: supervised fit should win most replicates
    res_b = run_benchmark(SimConfig(**base, x_err=0.50, y_err=0.10, seed=2000),
                          reps=10, n_test=200, eta=0.5)
    mean_b = res_b.mean_mses()["sjive"]
    tab = res_b.mse_table()
    wins_b = int(np.sum(tab["sjive"] < tab["jive_predict"]))
    ok_b = abs(mean_b - 0.1439) <= 0.03 and wins_b >= 7
    # (c) X noise beyond the detectability threshold
    res_c = run_benchmark(SimConfig(**base, x_err=0.999, y_err=0.90, seed=3100),
                          reps=10, n_test=200, eta=0.5)
    means_c = res_c.mean_mses()
    ok_c = means_c["sjive"] >= 0.95 and means_c["jive_predict"] >= 0.95
    ok = ok_a and ok_b and ok_c
    assert _report(
        3, ok,
        f"(a) mean {mean_a:.4f} vs 0.1068 +-0.03 [{'ok' if ok_a else 'FAIL'}]; "
        f"(b) mean {mean_b:.4f} vs 0.1439 +-0.03, wins {wins_b}/10 (>=7) "
        f"[{'ok' if ok_b else 'FAIL'}]; "
        f"(c) x_err=0.999 means {means_c['sjive']:.3f}/{means_c['jive_predict']:.3f} "
        f"(>=0.95) [{'ok' if ok_c else 'FAIL'}]",
    )


def test_criterion_4_eigenvalue_crossover():
    published = {0.10: (154.46, 8.85), 0.90: (51.89, 26.37), 0.99: (16.28, 27.54)}

    def mean_svs(x_err):
        sigs, noises = [], []
        for seed in range(3):
            cfg = SimConfig(k=2, p=(200, 200), n=200, rank_joint=1,
                            rank_indiv=(1, 1), x_err=x_err, y_err=0.10, seed=seed)
            _, _, truth = generate(cfg)
            s, nn = eigen_signal_report(truth)
            sigs.append(s)
            noises.append(nn)
        return float(np.mean(sigs)), float(np.mean(noises))

    details, ok = [], True
    for x_err, (exp_s, exp_n) in published.items():
        s, nn = mean_svs(x_err)
        good = abs(s - exp_s) <= 0.10 * exp_s and abs(nn - exp_n) <= 0.10 * exp_n
        ok = ok and good
        details.append(f"x={x_err}: {s:.1f}/{nn:.1f} vs {exp_s}/{exp_n}")
    # crossover sits between 95% and 99.9% error: signal clearly dominates
    # at or below 0.95, noise dominates at 0.99 and beyond
    s95, n95 = mean_svs(0.95)
    s99, n99 = mean_svs(0.99)
    s999, n999 = mean_svs(0.999)
    cross = s95 > n95 and s99 < n99 and s999 < n999
    ok = ok and cross
    details.append(
        f"crossover: 0.95 {s95:.1f}>{n95:.1f}, 0.99 {s99:.1f}<{n99:.1f}, "
        f"0.999 {s999:.1f}<{n999:.1f}"
    )
    assert _report(4, ok, "; ".join(details) + " (all +-10%)")


def test_criterion_5_monotone_descent_suite():
    worst_rise = 0.0
    worst_norm_dev = 0.0
    worst_ortho = 0.0
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        k = 2 if seed % 2 == 0 else 4
        p = tuple(int(rng.integers(12, 21)) for _ in range(k))
        n = 25
        blocks = [rng.normal(size=(pi, n)) for pi in p]
        y = rng.normal(size=n)
        ranks = Ranks(int(rng.integers(0, 4)),
                      tuple(int(rng.integers(0, 4)) for _ in range(k)))
        eta = (0.3, 0.5, 0.8)[seed % 3]
        model, report = fit(blocks, y, FitConfig(eta=eta, ranks=ranks, max_iter=80))
        tr = np.asarray(report.objective_trace)
        rises = np.diff(tr) / np.maximum(tr[:-1], 1.0)
        worst_rise = max(worst_rise, float(rises.max(initial=-np.inf)))
        if ranks.joint > 0 and "joint" not in model.degenerate:
            worst_norm_dev = max(
                worst_norm_dev,
                abs(np.linalg.norm(model.stacked_joint_frame()) - 1.0),
            )
        for i, r in enumerate(ranks.individual):
            if r == 0 or f"individual {i + 1}" in model.degenerate:
                continue
            worst_norm_dev = max(
                worst_norm_dev,
                abs(np.linalg.norm(model.stacked_indiv_frame(i)) - 1.0),
            )
            cross = model.joint_scores @ model.indiv_scores[i].T
            if cross.size:
                worst_ortho = max(worst_ortho, float(np.abs(cross).max()))
    ok = worst_rise <= 1e-10 and worst_norm_dev < 1e-8 and worst_ortho < 1e-6
    assert _report(
        5, ok,
        f"50 random problems (k in 2/4, ranks<=3): max relative objective "
        f"rise {worst_rise:.1e} (<=1e-10), max frame-norm deviation "
        f"{worst_norm_dev:.1e} (<1e-8), max score cross-product "
        f"{worst_ortho:.1e} (<1e-6)",
    )


# One rank selection of criterion 6 in a fresh interpreter whose BLAS runs
# on one thread (fixed when numpy loads), so that its folds run side by side
# on the CV engine's threads.
_RANK_SELECTION = """
import json, sys
from sjive.selection import make_cv_plan, select_model
from sjive.simulate import SimConfig, generate

x_err, seed = json.loads(sys.argv[1])
cfg = SimConfig(k=2, p=(100, 100), n=100, rank_joint=1,
                rank_indiv=(1, 1), x_err=x_err, y_err=0.10, seed=seed)
data, y, _ = generate(cfg)
_, ranks, _, _ = select_model(data, y, make_cv_plan(data.n, seed=seed), (0.5,))
print(json.dumps([ranks.joint, *ranks.individual]))
"""


def _rank_selection_case(case):
    src = str(Path(sjive.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _RANK_SELECTION, json.dumps(case)], env=env,
                         check=True, stdout=subprocess.PIPE, text=True, timeout=1800)
    joint, *individual = json.loads(out.stdout.strip().splitlines()[-1])
    return Ranks(joint, tuple(individual))


@pytest.mark.slow
def test_criterion_6_rank_selection():
    # Clause A is known not to hold for this method: once every latent
    # direction is captured, differently assigned rank vectors (for example
    # (2,0,1) against (1,1,1)) tie in CV MSE to within noise, so exact
    # recovery of the assignment happens at roughly the published ~20-25%
    # rate, not in 7/10 runs. Kept as specified; see the decisions ledger.
    cases = [(x_err, seed) for x_err in (0.10, 0.50) for seed in range(10)]
    # A selection takes 0.4 to 72 s here, so two threads hand the cases to
    # fresh interpreters as they free up. On two CPUs that took 222 s; all
    # cases in order in one interpreter took 272 s, because these small fold
    # fits hold the GIL for much of their time.
    with ThreadPoolExecutor(max_workers=2) as pool:
        chosen = dict(zip(cases, pool.map(_rank_selection_case, cases)))
    exact = sum((chosen[0.10, seed].joint, *chosen[0.10, seed].individual) == (1, 1, 1)
                for seed in range(10))
    joint_ok = sum(chosen[0.50, seed].joint == 1 for seed in range(10))
    ok_a = exact >= 7
    ok_b = joint_ok >= 6
    assert _report(
        6, ok_a and ok_b,
        f"(a) exact (1,1,1) at x_err=0.10 in {exact}/10 (>=7) "
        f"[{'ok' if ok_a else 'FAIL'}]; "
        f"(b) joint rank correct at x_err=0.50 in {joint_ok}/10 (>=6) "
        f"[{'ok' if ok_b else 'FAIL'}]",
    )


@pytest.mark.slow
def test_criterion_7_baseline_ordering():
    cfg = SimConfig(k=2, p=(100, 100), n=100, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.90, y_err=0.01, seed=4000)
    res = run_benchmark(cfg, reps=10, n_test=100, eta=0.5)
    m = res.mean_mses()
    chain = [
        ("sjive", "jive_predict"),
        ("jive_predict", "concat_pca"),
        ("concat_pca", "individual_pca_1"),
        ("concat_pca", "individual_pca_2"),
    ]
    inversions = sum(1 for a, b in chain if m[a] > m[b])
    ok = inversions <= 1
    order = " <= ".join(f"{k}:{m[k]:.4f}" for k in
                        ["sjive", "jive_predict", "concat_pca",
                         "individual_pca_1", "individual_pca_2"])
    assert _report(
        7, ok,
        f"mean test MSE ordering ({order}); pairwise inversions "
        f"{inversions} (<=1 allowed)",
    )


def test_criterion_8_compression_equivalence():
    cfg = SimConfig(k=2, p=(500, 500), n=50, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.5, y_err=0.5, seed=777)
    data, y, _ = generate(cfg)
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 35)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-15, max_iter=60)

    def timed(compress):
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            model, report = fit(tr_x, tr_y, fc, compress=compress)
            best = min(best, time.perf_counter() - t0)
        return model, report, best

    m_raw, r_raw, t_raw = timed(False)
    m_cmp, r_cmp, t_cmp = timed(True)
    assert r_raw.iterations == r_cmp.iterations
    obj_rel = abs(r_cmp.final_objective - r_raw.final_objective) / r_raw.final_objective
    pred_raw = predict(m_raw, estimate_scores(m_raw, te_x), standardized=True)
    pred_cmp = predict(m_cmp, estimate_scores(m_cmp, te_x), standardized=True)
    pred_diff = float(np.abs(pred_raw - pred_cmp).max())
    speedup = t_raw / t_cmp
    ok = obj_rel < 1e-6 and pred_diff < 1e-6 and speedup >= 3.0
    assert _report(
        8, ok,
        f"p=500/n=50: objective rel diff {obj_rel:.1e} (<1e-6), prediction "
        f"max diff {pred_diff:.1e} (<1e-6), speedup {speedup:.1f}x (>=3x, "
        f"{t_raw * 1e3:.0f}ms vs {t_cmp * 1e3:.0f}ms over {r_raw.iterations} iterations)",
    )


def test_criterion_9_inference_oracle():
    worst = 0.0
    rng_master = np.random.default_rng(900)
    for case in range(20):
        cfg = SimConfig(k=2, p=(12, 10), n=30, rank_joint=1 + case % 2,
                        rank_indiv=(1, 1 + (case // 2) % 2),
                        x_err=0.3, y_err=0.3, seed=9000 + case)
        data, y, _ = generate(cfg)
        ranks = Ranks(cfg.rank_joint, cfg.rank_indiv)
        model, _ = fit(data, y, FitConfig(eta=0.5, ranks=ranks))
        rows = component_inference(model, y.values)
        oracle = inference_oracle(model, y.values)
        for r in rows:
            o_r2, o_f, o_p = oracle[r.name]
            worst = max(
                worst,
                abs(r.partial_r2 - o_r2),
                abs(r.f_stat - o_f) / max(abs(o_f), 1.0),
                abs(r.p_value - o_p),
            )
    ok = worst < 1e-8
    assert _report(
        9, ok,
        f"partial R^2/F/p against brute-force nested least squares on 20 "
        f"fitted models (n=30): max deviation {worst:.1e} (<1e-8)",
    )
