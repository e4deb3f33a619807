import json
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sjive import selection
from sjive.core import FitConfig, Ranks
from sjive.core import fit as core_fit
from sjive.data import MultiSourceDataset, Outcome, standardize
from sjive.errors import ConfigError, DegeneracyError, RankError
from sjive.linalg import BLAS_THREAD_VARS, parallel_workers
from sjive.selection import (
    DEFAULT_ETA_GRID,
    RANK_ETA,
    cv_fold_mses,
    make_cv_plan,
    prepare_folds,
    select_model,
)
from sjive.simulate import SimConfig, generate


def test_cv_plan_partition_properties():
    for n, seed in [(23, 0), (50, 7), (11, 3)]:
        plan = make_cv_plan(n, seed)
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        merged = np.sort(np.concatenate(plan.folds))
        assert np.array_equal(merged, np.arange(n))
    # depends only on (n, seed)
    p1, p2 = make_cv_plan(30, 4), make_cv_plan(30, 4)
    for a, b in zip(p1.folds, p2.folds):
        assert np.array_equal(a, b)
    p3 = make_cv_plan(30, 5)
    assert any(not np.array_equal(a, b) for a, b in zip(p1.folds, p3.folds))


def test_cv_plan_validation():
    with pytest.raises(ConfigError):
        make_cv_plan(3, 0, n_folds=5)


@pytest.fixture(scope="module")
def small_noisy():
    cfg = SimConfig(k=2, p=(30, 30), n=50, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=77)
    data, y, _ = generate(cfg)
    return data, y


def test_cv_mse_rank_zero_near_one(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=1)
    cfg = FitConfig(eta=0.5, ranks=Ranks(0, (0, 0)))
    mse = np.mean(cv_fold_mses(prepare_folds(data, y, plan), cfg))
    assert 0.7 < mse < 1.4


def test_cv_mse_noiseless_low():
    cfg = SimConfig(k=2, p=(25, 25), n=50, rank_joint=1, rank_indiv=(1, 1), seed=78)
    data, y, _ = generate(cfg)
    plan = make_cv_plan(data.n, seed=2)
    cfg_fit = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-9, max_iter=2000)
    assert np.mean(cv_fold_mses(prepare_folds(data, y, plan), cfg_fit)) < 0.01


def test_cv_mse_deterministic(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=3)
    cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    a = np.mean(cv_fold_mses(prepare_folds(data, y, plan), cfg))
    b = np.mean(cv_fold_mses(prepare_folds(data, y, plan), cfg))
    assert a == b


def test_cv_mse_rank_error_names_fold(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=4)
    cfg = FitConfig(eta=0.5, ranks=Ranks(31, (1, 1)))  # exceeds p after any split
    with pytest.raises(RankError, match="fold 1"):
        cv_fold_mses(prepare_folds(data, y, plan), cfg)


def test_select_eta_singleton(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=5)
    eta, _, _, trace = select_model(data, y, plan, (0.5,), Ranks(1, (1, 1)))
    assert eta == 0.5
    assert trace.chosen == "eta=0.5"
    assert len(trace.candidates) == 1


def test_select_eta_records_all_and_attains_min(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=6)
    grid = (0.25, 0.5, 0.75, 0.99)
    eta, _, _, trace = select_model(data, y, plan, grid, Ranks(1, (1, 1)))
    assert len(trace.candidates) == len(grid)
    mses = {c["candidate"]: c["mean_mse"] for c in trace.candidates}
    assert mses[f"eta={eta:g}"] == min(mses.values())
    # the selected weight is never worse than the most X-weighted grid point
    assert mses[f"eta={eta:g}"] <= mses["eta=0.99"]


def test_select_eta_pure_noise_outcome():
    # With an almost pure-noise outcome no weight is meaningfully better;
    # the search must still record every candidate and return the argmin.
    cfg = SimConfig(k=2, p=(20, 20), n=40, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.99, seed=82)
    data, y, _ = generate(cfg)
    plan = make_cv_plan(data.n, seed=10)
    grid = (0.25, 0.5, 0.9)
    eta, _, _, trace = select_model(data, y, plan, grid, Ranks(1, (1, 1)))
    assert eta in grid
    mses = {c["candidate"]: c["mean_mse"] for c in trace.candidates}
    assert len(mses) == len(grid)
    assert mses[f"eta={eta:g}"] == min(mses.values())


def test_select_eta_rejects_bad_grid(small_noisy):
    data, y = small_noisy
    with pytest.raises(ConfigError):
        select_model(data, y, eta_grid=(), ranks=Ranks(1, (1, 1)))
    with pytest.raises(ConfigError):
        select_model(data, y, eta_grid=(0.0, 0.5), ranks=Ranks(1, (1, 1)))
    with pytest.raises(ConfigError, match="iterate"):
        select_model(data, y, ranks=Ranks(1, (1, 1)), iterate=True)


def test_select_ranks_pure_noise_stays_small():
    rng = np.random.default_rng(79)
    data = MultiSourceDataset.from_arrays(
        [rng.normal(size=(20, 40)), rng.normal(size=(20, 40))]
    )
    y = Outcome(rng.normal(size=40))
    plan = make_cv_plan(40, seed=7)
    _, ranks, _, _ = select_model(data, y, plan, (0.5,))
    assert ranks.total <= 1


def test_select_ranks_noiseless_total_rank():
    # All three signal directions must be found; the assignment between
    # joint and individual ranks can tie when structures overlap, so the
    # strict check is on the total.
    cfg = SimConfig(k=2, p=(25, 25), n=50, rank_joint=1, rank_indiv=(1, 1), seed=80)
    data, y, _ = generate(cfg)
    plan = make_cv_plan(data.n, seed=8)
    _, ranks, trace, _ = select_model(data, y, plan, (0.5,), max_iter=2000, tol=1e-9)
    assert ranks.total == 3
    assert trace.chosen.startswith("(")
    accepted = [s["accepted"] for s in trace.steps]
    assert len(accepted) == 3


def test_select_ranks_respects_bounds():
    rng = np.random.default_rng(81)
    data = MultiSourceDataset.from_arrays([rng.normal(size=(2, 25))])
    y = Outcome(rng.normal(size=25))
    plan = make_cv_plan(25, seed=9)
    _, ranks, _, _ = select_model(data, y, plan, (0.5,))
    assert ranks.joint <= 2 and ranks.individual[0] <= 2


def _constant_in_one_training_fold(plan, fold):
    """Block 1's first variable is 0 everywhere except on one fold's
    held-out samples, so it is constant in that fold's training set only."""
    cfg = SimConfig(k=2, p=(20, 20), n=40, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=83)
    data, y, _ = generate(cfg)
    blocks = [b.copy() for b in data.blocks]
    blocks[0][0] = 0.0
    blocks[0][0, plan.folds[fold]] = np.random.default_rng(0).normal(size=plan.folds[fold].size)
    return MultiSourceDataset.from_arrays(blocks), y


def test_selection_passes_drop_policy_to_folds():
    plan = make_cv_plan(40, seed=11)
    data, y = _constant_in_one_training_fold(plan, fold=2)
    cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    with pytest.raises(DegeneracyError, match="block 1"):
        cv_fold_mses(prepare_folds(data, y, plan), cfg)
    assert np.isfinite(cv_fold_mses(prepare_folds(data, y, plan, policy="drop"), cfg)).all()
    _, ranks, trace, _ = select_model(data, y, plan, (0.5,), policy="drop")
    assert ranks.total >= 1
    eta, _, _, trace = select_model(data, y, plan, (0.3, 0.7), ranks, policy="drop")
    assert len(trace.candidates) == 2
    eta, ranks, _, _ = select_model(data, y, plan, eta_grid=(0.3, 0.7), policy="drop")
    assert ranks.total >= 1


def test_variable_constant_in_one_training_fold_names_the_fold():
    plan = make_cv_plan(40, seed=11)
    data, y = _constant_in_one_training_fold(plan, fold=2)
    assert np.std(data.blocks[0][0]) > 0  # not constant in the data as passed
    cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    with pytest.raises(DegeneracyError, match=r"^fold 3 training samples: block 1: "
                                              r"zero-variance variable\(s\) \['b1_v1'\]"):
        cv_fold_mses(prepare_folds(data, y, plan), cfg)


def test_outcome_constant_in_one_training_fold_names_the_fold():
    # Nonzero only on fold 3's held-out samples: constant on its training samples.
    plan = make_cv_plan(40, seed=11)
    data, _ = _constant_in_one_training_fold(plan, fold=2)
    values = np.zeros(40)
    values[plan.folds[2]] = np.random.default_rng(1).normal(size=plan.folds[2].size)
    y = Outcome(values)
    with pytest.raises(DegeneracyError, match=r"^fold 3 training samples: outcome is constant"):
        select_model(data, y, plan, (0.5,), policy="drop")
    with pytest.raises(DegeneracyError, match=r"^fold 3 training samples: outcome is constant"):
        select_model(data, y, plan, (0.5,), Ranks(1, (1, 1)), policy="drop")


def test_unconverged_fold_fits_warn_once(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=12)
    with pytest.warns(RuntimeWarning) as record:
        select_model(data, y, plan, (0.3, 0.7), Ranks(1, (1, 1)), max_iter=1)
    assert len(record) == 1
    assert str(record[0].message).startswith("10 of 10 cross-validation fold fits stopped")
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, trace, _ = select_model(data, y, plan, (0.5,), max_iter=1, reports=reports)
    assert len(reports) == 5 * len(trace.candidates)
    assert not all(r.converged for r in reports)


def test_select_model_counts_unconverged_across_passes(monkeypatch):
    # Every fold fit reports non-convergence; the pipeline warns once with
    # the count over its rank and weight passes.
    cfg = SimConfig(k=2, p=(8, 8), n=25, rank_joint=1, rank_indiv=(0, 0), seed=84)
    data, y, _ = generate(cfg)
    fits = []

    def unconverged_fit(*args, **kwargs):
        model, report = core_fit(*args, **kwargs)
        fits.append(report)
        return model, replace(report, converged=False)

    monkeypatch.setattr(selection, "fit", unconverged_fit)
    with pytest.warns(RuntimeWarning) as record:
        _, ranks, _, _ = select_model(data, y, make_cv_plan(data.n, seed=13), eta_grid=(0.3, 0.7))
    assert ranks.total > 0  # so the weight pass ran as well
    assert len(record) == 1
    assert str(record[0].message).startswith(f"{len(fits)} of {len(fits)} ")


def test_select_model_with_one_block():
    # With k = 1 a joint and an individual component span the same space;
    # the tie goes to the joint rank, which is tried first.
    cfg = SimConfig(k=1, p=(12,), n=30, rank_joint=1, rank_indiv=(1,),
                    x_err=0.1, y_err=0.1, seed=3)
    data, y, _ = generate(cfg)
    eta, ranks, rank_trace, eta_trace = select_model(
        data, y, make_cv_plan(data.n, seed=2), eta_grid=(0.25, 0.5, 0.75))
    assert ranks == Ranks(1, (0,))
    assert [c["candidate"] for c in rank_trace.candidates][:3] == [
        "(0,0)", "round1:joint->(1,0)", "round1:block1->(0,1)"]
    assert eta in (0.25, 0.5, 0.75)
    assert eta_trace.chosen == f"eta={eta:g}"


# The CV engine: folds prepared once per selection call, one candidate's
# folds fitted side by side on linalg.parallel_workers() threads.

_ENGINE_EQUIVALENCE = """
import json, sys
import numpy as np
from sjive import selection
from sjive.selection import DEFAULT_ETA_GRID, make_cv_plan, select_model
from sjive.simulate import SimConfig, generate

data, y, _ = generate(SimConfig(k=2, p=(12, 10), n=30, rank_joint=1, rank_indiv=(1, 1),
                                x_err=0.3, y_err=0.1, seed=91))
out = {}
for workers in (2, 1):
    selection.parallel_workers = lambda: workers
    for iterate in (False, True):
        eta, ranks, rt, et = select_model(data, y, make_cv_plan(data.n, seed=3),
                                          DEFAULT_ETA_GRID, iterate=iterate)
        out[f"{workers}-{iterate}"] = [eta.hex(), repr(ranks),
                                       [[c["candidate"], [v.hex() for v in c["fold_mses"]]]
                                        for c in (*rt.candidates, *et.candidates)]]
print(json.dumps(out))
"""


def test_parallel_and_serial_engines_are_bit_identical():
    # BLAS must really run on one thread, which is fixed when numpy loads,
    # so the comparison runs in a fresh interpreter.
    src = str(Path(selection.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _ENGINE_EQUIVALENCE], env=env, check=True,
                         capture_output=True, text=True)
    runs = json.loads(out.stdout.strip().splitlines()[-1])
    for iterate in (False, True):
        assert runs[f"2-{iterate}"] == runs[f"1-{iterate}"]
        assert len(runs[f"1-{iterate}"][2]) > len(DEFAULT_ETA_GRID)


@pytest.fixture()
def two_workers(monkeypatch):
    """Fold fits on two threads, whatever the CPU count."""
    monkeypatch.setattr(selection, "parallel_workers", lambda: 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_folds_are_standardized_once_per_selection_call(small_noisy, monkeypatch, workers):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=14)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return standardize(*args, **kwargs)

    monkeypatch.setattr(selection, "standardize", counted)
    monkeypatch.setattr(selection, "parallel_workers", lambda: workers)
    _, _, trace, _ = select_model(data, y, plan, (0.5,), max_iter=50)
    assert len(trace.candidates) > 1
    assert len(calls) == len(plan.folds)
    calls.clear()
    select_model(data, y, plan, (0.3, 0.7), Ranks(1, (1, 1)), max_iter=50)
    assert len(calls) == len(plan.folds)
    calls.clear()
    select_model(data, y, plan, eta_grid=(0.3, 0.7), iterate=True, max_iter=50)
    assert calls == [data.n - f.size for f in plan.folds]


def test_wrapped_fit_sees_every_threaded_fold_fit(small_noisy, fit_configs, two_workers):
    data, y = small_noisy
    reports = []
    threads = threading.active_count()
    _, _, trace, _ = select_model(data, y, make_cv_plan(data.n, seed=15), (0.5,), max_iter=50,
                                  reports=reports)
    assert len(fit_configs) == len(reports) == 5 * len(trace.candidates)
    assert threading.active_count() == threads  # every pool was shut down


def test_select_model_cross_validates_each_candidate_once(small_noisy, fit_configs):
    data, y = small_noisy
    reports = []
    eta, ranks, rank_trace, eta_trace = select_model(
        data, y, make_cv_plan(data.n, seed=16), eta_grid=(0.3, RANK_ETA, 0.7), reports=reports)
    assert ranks.total > 0
    seen = [(c.eta, c.ranks) for c in fit_configs]
    assert all(seen.count(key) == 5 for key in seen)
    assert len(reports) == len(fit_configs) == 5 * (len(rank_trace.candidates) + 2)
    # The weight search keeps the rank search's entry for RANK_ETA, bit for bit.
    rank_entry = next(c for c in rank_trace.candidates
                      if c["candidate"].endswith("->" + rank_trace.chosen))
    eta_entry = next(c for c in eta_trace.candidates if c["candidate"] == f"eta={RANK_ETA:g}")
    assert eta_entry["fold_mses"] == rank_entry["fold_mses"]
    assert eta_entry["mean_mse"] == rank_entry["mean_mse"]


@pytest.mark.parametrize("y_err, all_zero", [(0.2, False), (0.99, True)])
def test_one_weight_grid_fixes_the_weight(fit_configs, y_err, all_zero):
    # The ranks are searched at the grid's one weight, which is returned even
    # when every chosen rank is zero; the weight pass refits nothing.
    cfg = SimConfig(k=2, p=(10, 10), n=30, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.5, y_err=y_err, seed=7)
    data, y, _ = generate(cfg)
    eta, ranks, rank_trace, eta_trace = select_model(data, y, make_cv_plan(data.n, seed=3), (0.3,))
    assert eta == 0.3
    assert (ranks.total == 0) is all_zero
    assert len(fit_configs) == 5 * len(rank_trace.candidates)
    assert {c.eta for c in fit_configs} == {0.3}
    if all_zero:
        assert eta_trace.chosen == "skipped: all ranks zero"


def test_given_ranks_skip_the_rank_search(small_noisy, fit_configs):
    data, y = small_noisy
    grid = (0.3, 0.5, 0.7)
    eta, ranks, rank_trace, eta_trace = select_model(
        data, y, make_cv_plan(data.n, seed=19), grid, Ranks(1, (1, 0)))
    assert ranks == Ranks(1, (1, 0))
    assert rank_trace.candidates == [] and rank_trace.chosen == "given: (1,1,0)"
    assert len(fit_configs) == 5 * len(grid)
    assert {c.ranks for c in fit_configs} == {ranks}
    assert [c["candidate"] for c in eta_trace.candidates] == ["eta=0.3", "eta=0.5", "eta=0.7"]
    assert eta in grid


def test_threaded_rank_error_names_its_fold(small_noisy, two_workers):
    data, y = small_noisy
    folds = prepare_folds(data, y, make_cv_plan(data.n, seed=4))
    with pytest.raises(RankError, match="^fold 1: joint rank 31"):
        cv_fold_mses(folds, FitConfig(eta=0.5, ranks=Ranks(31, (1, 1))))
    # 49 samples in two folds train on 24 and 25 samples (p = 30): the
    # smaller fold's cap of 24 fits every fold, one more fails on it alone.
    keep = np.arange(49)
    folds = prepare_folds(data.subset_samples(keep), Outcome(y.values[keep]),
                          make_cv_plan(49, seed=4, n_folds=2))
    assert [fold.train.n for fold in folds] == [24, 25]
    assert np.isfinite(cv_fold_mses(folds, FitConfig(eta=0.5, ranks=Ranks(24, (0, 0))))).all()
    with pytest.raises(RankError, match="^fold 1: joint rank 25 exceeds min.* = 24"):
        cv_fold_mses(folds, FitConfig(eta=0.5, ranks=Ranks(25, (0, 0))))
    with pytest.raises(RankError, match="^fold 1: block 2 rank 25 exceeds min.* = 24"):
        cv_fold_mses(folds, FitConfig(eta=0.5, ranks=Ranks(0, (24, 25))))


@pytest.mark.parametrize("workers", [1, 2])
def test_fit_error_in_a_fold_surfaces_as_in_a_serial_loop(small_noisy, monkeypatch, workers):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=17)
    folds = prepare_folds(data, y, plan)
    fold_of = {tuple(f.train.sample_ids): i for i, f in enumerate(folds)}

    def failing(data, y, cfg, *args, **kwargs):
        fold = fold_of[tuple(data.sample_ids)]
        if fold in (1, 3):
            raise DegeneracyError(f"fit failed on fold index {fold}")
        return core_fit(data, y, cfg, *args, **kwargs)

    monkeypatch.setattr(selection, "fit", failing)
    monkeypatch.setattr(selection, "parallel_workers", lambda: workers)
    reports = []
    threads = threading.active_count()
    with pytest.raises(DegeneracyError, match="^fit failed on fold index 1$"):
        cv_fold_mses(folds, FitConfig(eta=0.5, ranks=Ranks(1, (1, 1))), reports=reports)
    assert len(reports) == 1  # the fold before the failing one
    assert threading.active_count() == threads


def test_engine_is_serial_without_a_blas_thread_setting(small_noisy, monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert parallel_workers() == 1
    data, y = small_noisy
    threads = []

    def recorded(*args, **kwargs):
        threads.append(threading.current_thread())
        return core_fit(*args, **kwargs)

    monkeypatch.setattr(selection, "fit", recorded)
    cv_fold_mses(prepare_folds(data, y, make_cv_plan(data.n, seed=18)),
                 FitConfig(eta=0.5, ranks=Ranks(1, (1, 1))))
    assert threads == [threading.main_thread()] * 5


def test_parallel_workers_divides_usable_cpus_by_blas_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert parallel_workers() == cpus
    monkeypatch.setenv("OMP_NUM_THREADS", "2")  # the largest setting counts
    assert parallel_workers() == max(1, cpus // 2)
    monkeypatch.setenv("OMP_NUM_THREADS", str(cpus + 1))
    assert parallel_workers() == 1
