import warnings
from dataclasses import replace

import numpy as np
import pytest

from sjive import selection
from sjive.core import FitConfig, Ranks
from sjive.core import fit as core_fit
from sjive.data import MultiSourceDataset, Outcome
from sjive.errors import ConfigError, DegeneracyError, RankError
from sjive.selection import (
    cv_fold_mses,
    make_cv_plan,
    select_eta,
    select_model,
    select_ranks,
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
    mse = np.mean(cv_fold_mses(data, y, cfg, plan))
    assert 0.7 < mse < 1.4


def test_cv_mse_noiseless_low():
    cfg = SimConfig(k=2, p=(25, 25), n=50, rank_joint=1, rank_indiv=(1, 1), seed=78)
    data, y, _ = generate(cfg)
    plan = make_cv_plan(data.n, seed=2)
    cfg_fit = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-9, max_iter=2000)
    assert np.mean(cv_fold_mses(data, y, cfg_fit, plan)) < 0.01


def test_cv_mse_deterministic(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=3)
    cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    a = np.mean(cv_fold_mses(data, y, cfg, plan))
    b = np.mean(cv_fold_mses(data, y, cfg, plan))
    assert a == b


def test_cv_mse_rank_error_names_fold(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=4)
    cfg = FitConfig(eta=0.5, ranks=Ranks(31, (1, 1)))  # exceeds p after any split
    with pytest.raises(RankError, match="fold 1"):
        cv_fold_mses(data, y, cfg, plan)


def test_select_eta_singleton(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=5)
    eta, trace = select_eta(data, y, Ranks(1, (1, 1)), grid=(0.5,), plan=plan)
    assert eta == 0.5
    assert trace.chosen == "eta=0.5"
    assert len(trace.candidates) == 1


def test_select_eta_records_all_and_attains_min(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=6)
    grid = (0.25, 0.5, 0.75, 0.99)
    eta, trace = select_eta(data, y, Ranks(1, (1, 1)), grid=grid, plan=plan)
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
    eta, trace = select_eta(data, y, Ranks(1, (1, 1)), grid=grid, plan=plan)
    assert eta in grid
    mses = {c["candidate"]: c["mean_mse"] for c in trace.candidates}
    assert len(mses) == len(grid)
    assert mses[f"eta={eta:g}"] == min(mses.values())


def test_select_eta_rejects_bad_grid(small_noisy):
    data, y = small_noisy
    with pytest.raises(ConfigError):
        select_eta(data, y, Ranks(1, (1, 1)), grid=())
    with pytest.raises(ConfigError):
        select_eta(data, y, Ranks(1, (1, 1)), grid=(0.0, 0.5))


def test_select_ranks_pure_noise_stays_small():
    rng = np.random.default_rng(79)
    data = MultiSourceDataset.from_arrays(
        [rng.normal(size=(20, 40)), rng.normal(size=(20, 40))]
    )
    y = Outcome(rng.normal(size=40))
    plan = make_cv_plan(40, seed=7)
    ranks, _ = select_ranks(data, y, eta=0.5, plan=plan)
    assert ranks.total <= 1


def test_select_ranks_noiseless_total_rank():
    # All three signal directions must be found; the assignment between
    # joint and individual ranks can tie when structures overlap, so the
    # strict check is on the total.
    cfg = SimConfig(k=2, p=(25, 25), n=50, rank_joint=1, rank_indiv=(1, 1), seed=80)
    data, y, _ = generate(cfg)
    plan = make_cv_plan(data.n, seed=8)
    ranks, trace = select_ranks(data, y, eta=0.5, plan=plan,
                                max_iter=2000, tol=1e-9)
    assert ranks.total == 3
    assert trace.chosen.startswith("(")
    accepted = [s["accepted"] for s in trace.steps]
    assert len(accepted) == 3


def test_select_ranks_respects_bounds():
    rng = np.random.default_rng(81)
    data = MultiSourceDataset.from_arrays([rng.normal(size=(2, 25))])
    y = Outcome(rng.normal(size=25))
    plan = make_cv_plan(25, seed=9)
    ranks, _ = select_ranks(data, y, eta=0.5, plan=plan)
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
        cv_fold_mses(data, y, cfg, plan)
    assert np.isfinite(cv_fold_mses(data, y, cfg, plan, policy="drop")).all()
    ranks, trace = select_ranks(data, y, 0.5, plan, policy="drop")
    assert ranks.total >= 1
    eta, trace = select_eta(data, y, ranks, grid=(0.3, 0.7), plan=plan, policy="drop")
    assert len(trace.candidates) == 2
    eta, ranks, _, _ = select_model(data, y, plan, eta_grid=(0.3, 0.7), policy="drop")
    assert ranks.total >= 1


def test_unconverged_fold_fits_warn_once(small_noisy):
    data, y = small_noisy
    plan = make_cv_plan(data.n, seed=12)
    with pytest.warns(RuntimeWarning) as record:
        select_eta(data, y, Ranks(1, (1, 1)), grid=(0.3, 0.7), plan=plan, max_iter=1)
    assert len(record) == 1
    assert str(record[0].message).startswith("10 of 10 cross-validation fold fits stopped")
    reports = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = select_ranks(data, y, 0.5, plan, max_iter=1, reports=reports)
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
