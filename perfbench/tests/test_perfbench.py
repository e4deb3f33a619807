"""Fast tests of the benchmark's checks, tracing and inputs at tiny shapes.

Every check must pass on the program's real output and fail on a
deliberately perturbed copy of it.

    python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

import checks
import gen
import workloads
from checks import CheckFailed
from tracing import Tracer, patch_everywhere, restore

import sjive.bench
import sjive.core
import sjive.selection
from sjive.core import FitConfig, Ranks
from sjive.data import MultiSourceDataset, Outcome
from sjive.predict import estimate_scores, predict
from sjive.selection import IMPROVEMENT_THRESHOLD, SelectionTrace


def _standardized(seed=0, p=(8, 8), n=12):
    prob = gen.latent_problem(seed, p, n, 0.3, 0.1)
    blocks = [checks.standardize_rows(b)[0] for b in prob.blocks]
    y = (prob.y - prob.y.mean()) / prob.y.std(ddof=1)
    return blocks, y


def _fit(eta=0.5, p=(8, 8), n=12, compress="auto"):
    blocks, y = _standardized(p=p, n=n)
    model, report = sjive.core.fit(MultiSourceDataset.from_arrays(blocks), Outcome(y),
                        FitConfig(eta=eta, ranks=Ranks(1, (1, 1))), compress=compress)
    return model, report, blocks, y


@pytest.mark.parametrize("eta", [0.01, 0.5, 1.0])
def test_check_fit_passes_on_program_fits(eta):
    model, report, blocks, y = _fit(eta)
    checks.check_fit(model, report, blocks, y)


def test_check_fit_passes_on_compressed_fit():
    model, report, blocks, y = _fit(p=(20, 20), n=12)
    checks.check_fit(model, report, blocks, y)


def test_descent_fails_on_a_rise():
    with pytest.raises(CheckFailed, match="rose"):
        checks.check_descent([5.0, 4.0, 4.0 + 1e-6])


def test_structure_fails_on_correlated_scores():
    model, *_ = _fit()
    bad = replace(model, indiv_scores=[s + 0.1 * model.joint_scores for s in model.indiv_scores])
    with pytest.raises(CheckFailed, match="orthogonal"):
        checks.check_structure(bad)


def test_structure_fails_on_frame_norm():
    model, *_ = _fit()
    bad = replace(model, joint_loadings=[1.001 * u for u in model.joint_loadings])
    with pytest.raises(CheckFailed, match="norm"):
        checks.check_structure(bad)


def test_loss_fails_on_wrong_objective_or_data():
    model, report, blocks, y = _fit(p=(20, 20), n=12)
    with pytest.raises(CheckFailed, match="loss"):
        checks.check_loss(model, report.final_objective * (1 + 1e-6), blocks, y)
    shifted = [blocks[0] + 1e-3, blocks[1]]
    with pytest.raises(CheckFailed, match="loss"):
        checks.check_loss(model, report.final_objective, shifted, y)


def test_closed_form_prediction_matches_program_and_catches_perturbation():
    model, _, _, _ = _fit()
    new, _ = _standardized(seed=5)
    yhat = predict(model, estimate_scores(model, MultiSourceDataset.from_arrays(new)),
                   standardized=True)
    independent = checks.closed_form_prediction(model, new)
    checks.check_prediction(yhat, independent, 1.0, "prediction")
    with pytest.raises(CheckFailed, match="closed-form"):
        checks.check_prediction(yhat + 0.01, independent, 1.0, "prediction")


def test_heldout_bounds():
    checks.check_heldout(0.15, 1.0, 0.1, "fit")
    with pytest.raises(CheckFailed, match="mean-only"):
        checks.check_heldout(1.0, 1.0, 0.9, "fit")
    with pytest.raises(CheckFailed, match="noise floor"):
        checks.check_heldout(0.25, 1.0, 0.1, "fit")


def _trace(means, steps=()):
    tr = SelectionTrace()
    for i, m in enumerate(means):
        tr.record(f"c{i}", np.array([m]))
    tr.steps = list(steps)
    return tr


def test_eta_choice():
    trace = _trace([0.3, 0.2, 0.2])
    checks.check_eta_choice(0.5, trace, (0.01, 0.5, 0.99))
    with pytest.raises(CheckFailed, match="eta choice"):
        checks.check_eta_choice(0.99, trace, (0.01, 0.5, 0.99))


def test_rank_steps():
    step = {"round": 1, "accepted": "joint", "ranks": "(1,0,0)", "mean_mse": 0.5}
    checks.check_rank_steps(Ranks(1, (0, 0)), _trace([1.0, 0.5], [step]), IMPROVEMENT_THRESHOLD)
    weak = dict(step, mean_mse=1.0 - IMPROVEMENT_THRESHOLD / 2)
    with pytest.raises(CheckFailed, match="rank step"):
        checks.check_rank_steps(Ranks(1, (0, 0)), _trace([1.0], [weak]), IMPROVEMENT_THRESHOLD)
    with pytest.raises(CheckFailed, match="rank choice"):
        checks.check_rank_steps(Ranks(2, (0, 0)), _trace([1.0, 0.5], [step]), IMPROVEMENT_THRESHOLD)


def test_identical_fails_on_one_ulp():
    a = np.array([1.0, 2.0])
    checks.check_identical(a, a.copy(), "values")
    with pytest.raises(CheckFailed):
        checks.check_identical(a, np.nextafter(a, 3.0), "values")


def test_tracer_wraps_every_binding_and_restores():
    original = sjive.core.fit
    tracer = Tracer()
    tracer.install()
    try:
        assert sjive.selection.fit is sjive.bench.fit is sjive.core.fit is not original
        _fit()
        np.linalg.svd(np.eye(3))
    finally:
        tracer.uninstall()
    assert sjive.selection.fit is sjive.bench.fit is sjive.core.fit is original
    assert tracer.calls("core.fit") == 1
    assert tracer.totals["core.fit.iters"] >= 1
    assert tracer.calls("numpy.svd") >= 3
    assert tracer.seconds("core.fit") > 0.0
    names = {s[0] for s in tracer.spans}
    assert "data.compress" not in names


def test_patch_everywhere_reaches_submodule_behind_rebound_name():
    # ``sjive.predict`` is the function; the module is only in sys.modules.
    module = sys.modules["sjive.predict"]
    original = module.estimate_scores
    undo = patch_everywhere(original, "sentinel")
    try:
        assert module.estimate_scores == "sentinel"
        assert sys.modules["sjive.selection"].estimate_scores == "sentinel"
    finally:
        restore(undo)
    assert module.estimate_scores is original


def test_shuffled_problem_keeps_folds_and_values():
    base = gen.latent_problem(3, (5, 6), 10, 0.5, 0.1)
    prob, perm = gen.shuffled(base, 7)
    folds = gen.base_folds(10, 1)
    for f_base, f_new in zip(folds, gen.map_folds(folds, perm)):
        assert sorted(base.sample_ids[j] for j in f_base) == sorted(prob.sample_ids[j] for j in f_new)
    assert np.array_equal(np.sort(prob.blocks[1].ravel()), np.sort(base.blocks[1].ravel()))
    again, _ = gen.shuffled(base, 7)
    assert np.array_equal(again.blocks[0], prob.blocks[0])


def test_csv_values_round_trip_exactly(tmp_path):
    prob = gen.latent_problem(0, (4,), 5, 0.5, 0.1, quantum=gen.CSV_QUANTUM)
    path = tmp_path / "x.csv"
    gen.write_csv(path, prob.blocks[0], prob.variable_ids[0], prob.sample_ids)
    from sjive.data import load_csv

    assert np.array_equal(load_csv(path).values, prob.blocks[0])


class _TinySim(workloads.SimReplicate):
    SIM = dict(k=2, p=(15, 15), n=30, rank_joint=1, rank_indiv=(1, 1), x_err=0.2, y_err=0.1,
               seed=3)
    REPLICATES = (0,)
    N_TEST = 30


class _TinyCv(workloads.CvSelect):
    PROBLEM_SEEDS = (0,)
    P, N, X_ERR, Y_ERR = (28, 28), 30, 0.1, 0.1
    GRID = (0.01, 0.99)


class _TinyTall(workloads.TallCli):
    P, N_TRAIN, N_NEW, X_ERR, Y_ERR = (40, 40), 12, 9, 0.2, 0.1


def test_sim_workload_checks_pass_and_catch_a_wrong_mse(tmp_path):
    wl = _TinySim(1, tmp_path)
    wl.prepare()
    (op,) = wl.round(0)
    wl.check(op)
    r, res = op.result
    res.mses["sjive"] *= 1.01
    with pytest.raises(CheckFailed):
        wl.check(op)


def test_cv_workload_checks_pass_and_catch_a_wrong_choice(tmp_path):
    wl = _TinyCv(1, tmp_path)
    wl.prepare()
    (op,) = wl.round(0)
    wl.check(op)
    eta, ranks, rank_trace, eta_trace = op.result
    other = 0.99 if eta == 0.01 else 0.01
    op.result = (other, ranks, rank_trace, eta_trace)
    with pytest.raises(CheckFailed, match="eta choice"):
        wl.check(op)


def test_tall_workload_checks_pass_and_catch_a_changed_prediction(tmp_path):
    wl = _TinyTall(1, tmp_path, in_process=True)
    wl.prepare()
    wl.write_inputs()
    (op,) = wl.round(0)
    wl.check(op)
    path = op.result / "predict" / "predictions.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), np.inf)))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    wl.reload_checked = False
    with pytest.raises(CheckFailed, match="bit-identical"):
        wl.check(op)


def test_reported_metrics_are_the_declared_ones():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    layer = run.per_layer(Tracer(), 0.1, 0.0)
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in declared["per_layer"])
    assert {m["name"] for m in declared["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)


def test_fold_data_standardizes_raw_columns_and_passes_other_data_through():
    prob = gen.latent_problem(0, (6, 6), 10, 0.3, 0.1)
    idx = [1, 4, 7, 8]
    data = MultiSourceDataset.from_arrays([b[:, idx] for b in prob.blocks],
                                          [prob.sample_ids[j] for j in idx])
    blocks, y = workloads.CvSelect._fold_data(prob, data, Outcome(prob.y[idx]))
    assert np.allclose(blocks[0], checks.standardize_rows(prob.blocks[0][:, idx])[0])
    assert np.isclose(y.std(ddof=1), 1.0)
    compressed = [np.ones((3, 4)), np.ones((3, 4))]
    blocks, y = workloads.CvSelect._fold_data(prob, compressed, np.arange(4.0))
    assert blocks[0].shape == (3, 4) and y[3] == 3.0
