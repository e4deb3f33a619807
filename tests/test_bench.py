import threading

import pytest

from sjive import baselines, bench, selection
from sjive.bench import CV_ETA_GRID, run_benchmark, run_replicate
from sjive.core import fit as core_fit
from sjive.errors import ConfigError
from sjive.simulate import SimConfig

CFG = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1),
                x_err=0.3, y_err=0.2, seed=31)


def test_run_replicate_rejects_n_test_below_one():
    cfg = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1), seed=31)
    for n_test in (0, -3):
        with pytest.raises(ConfigError) as info:
            run_replicate(cfg, 0, n_test=n_test)
        assert str(info.value) == f"n_test must be at least 1, got {n_test}"


def _run_on_threads(monkeypatch, workers, **kwargs):
    """``run_benchmark`` on ``workers`` map threads, with the thread of each
    ``fit`` call it makes and the live thread count at that call."""
    calls = []

    def recorded(*args, **kw):
        calls.append((threading.current_thread(), threading.active_count()))
        return core_fit(*args, **kw)

    monkeypatch.setattr(selection, "parallel_workers", lambda: workers)
    monkeypatch.setattr(bench, "fit", recorded)
    monkeypatch.setattr(selection, "fit", recorded)
    monkeypatch.setattr(baselines, "fit", recorded)
    return bench.run_benchmark(CFG, **kwargs), calls


def test_run_benchmark_workers_match_serial(monkeypatch):
    serial, _ = _run_on_threads(monkeypatch, 1, reps=3, max_iter=200)
    pooled, calls = _run_on_threads(monkeypatch, 2, reps=3, max_iter=200)
    assert pooled.methods == serial.methods
    assert [r.rep for r in pooled.replicates] == [0, 1, 2]
    assert [r.mses for r in pooled.replicates] == [r.mses for r in serial.replicates]
    assert any(thread is not threading.main_thread() for thread, _ in calls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fits stopping at max_iter
def test_cv_replicates_on_pool_threads_start_no_second_pool(monkeypatch):
    threads = threading.active_count()
    _, calls = _run_on_threads(monkeypatch, 2, reps=2, eta="cv", max_iter=20)
    assert len(calls) == 2 * (5 * len(CV_ETA_GRID) + 2)
    assert max(alive for _, alive in calls) <= threads + 2
    assert threading.active_count() == threads


def test_run_benchmark_counts_unconverged_fits():
    with pytest.warns(RuntimeWarning, match="4 of 4 replicate fits stopped at max_iter"):
        result = run_benchmark(CFG, reps=2, max_iter=1)
    assert [r.unconverged for r in result.replicates] == [2, 2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fold fits stopping at max_iter
def test_run_replicate_cv_passes_convergence_settings_to_fold_fits(fit_configs):
    cfg = SimConfig(k=2, p=(10, 8), n=20, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=31)
    run_replicate(cfg, 0, eta="cv", max_iter=7, tol=1e-3)
    assert len(fit_configs) == 5 * len(CV_ETA_GRID) + 2
    assert {(c.max_iter, c.tol) for c in fit_configs} == {(7, 1e-3)}
