"""Replicated benchmark runs: generate, split, fit every method, score.

Generated data is already variance-scaled, so fits run on it directly and
test MSEs are on the standardized scale throughout (a mean-only predictor
scores about 1). Replicate r uses generator seed base_seed + r.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from .baselines import baseline_predict, fit_jive_predict, fit_pca_regression
from .core import FitConfig, Ranks, fit
from .linalg import BLAS_THREAD_VARS
from .metrics import test_mse, win_rate
from .predict import estimate_scores, predict
from .selection import make_cv_plan, select_model
from .simulate import SimConfig, eigen_signal_report, generate, train_test_split

# Weights tried by ``eta="cv"``: a coarser grid than the CLI's, since every
# replicate runs its own search.
CV_ETA_GRID = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


@dataclass
class ReplicateResult:
    rep: int
    mses: dict[str, float]
    signal_sv: float
    noise_sv: float
    eta_used: float
    unconverged: int  # fits (sJIVE, eta = 1 baseline) that did not converge


@dataclass
class BenchmarkResult:
    replicates: list[ReplicateResult]
    methods: list[str]

    def mse_table(self) -> dict[str, np.ndarray]:
        return {
            m: np.array([r.mses[m] for r in self.replicates]) for m in self.methods
        }

    def mean_mses(self) -> dict[str, float]:
        return {m: float(np.mean(v)) for m, v in self.mse_table().items()}

    def win_rates(self) -> dict[str, float]:
        return win_rate(self.mse_table())


def run_replicate(
    sim_cfg: SimConfig,
    rep: int,
    n_test: int | None = None,
    eta: float | str = 0.5,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> ReplicateResult:
    """One replicate: train on the first n samples, test on n_test more.

    Scores sJIVE, JIVE.pred (the fit at eta = 1), PCA regression on the
    concatenated blocks and on each block alone, keyed ``sjive``,
    ``jive_predict``, ``concat_pca`` and ``individual_pca_<b>``.
    ``eta="cv"`` selects the weight per replicate by 5-fold CV on the
    training half, its fold fits bounded by ``max_iter`` and ``tol`` like
    the final ones; a float uses that fixed weight. sJIVE and JIVE.pred are
    scored the same way. Baseline PCA ranks equal the generating total rank.
    """
    if n_test is None:
        n_test = sim_cfg.n
    total_cfg = replace(sim_cfg, n=sim_cfg.n + n_test, seed=sim_cfg.seed + rep)
    data, y, truth = generate(total_cfg)
    train_x, train_y, test_x, test_y = train_test_split(data, y, sim_cfg.n)
    ranks = Ranks(sim_cfg.rank_joint, sim_cfg.rank_indiv)
    signal_sv, noise_sv = eigen_signal_report(truth)
    if eta == "cv":
        plan = make_cv_plan(train_x.n, seed=total_cfg.seed)
        eta_used, *_ = select_model(train_x, train_y, plan, CV_ETA_GRID, ranks,
                                    max_iter=max_iter, tol=tol)
    else:
        eta_used = float(eta)
    cfg = FitConfig(eta=1.0, ranks=ranks, max_iter=max_iter, tol=tol)
    fits = {
        "sjive": fit(train_x, train_y, replace(cfg, eta=eta_used)),
        "jive_predict": fit_jive_predict(train_x, train_y, ranks, cfg),
    }
    mses: dict[str, float] = {}
    for method, (model, _) in fits.items():
        est = estimate_scores(model, test_x)
        mses[method] = test_mse(test_y.values, predict(model, est, standardized=True))
    r_total = ranks.total
    bm = fit_pca_regression(train_x, train_y, r_total)
    mses["concat_pca"] = test_mse(test_y.values, baseline_predict(bm, test_x))
    for b in range(train_x.k):
        r_b = min(r_total, min(train_x.p[b], train_x.n))
        bm = fit_pca_regression(train_x, train_y, r_b, block=b)
        mses[f"individual_pca_{b + 1}"] = test_mse(
            test_y.values, baseline_predict(bm, test_x)
        )
    unconverged = sum(not report.converged for _, report in fits.values())
    return ReplicateResult(
        rep=rep, mses=mses, signal_sv=signal_sv, noise_sv=noise_sv, eta_used=eta_used,
        unconverged=unconverged,
    )


def map_single_threaded(func, items, workers: int = 2) -> list:
    """``list(map(func, items))`` run in ``workers`` fresh (spawned)
    processes whose BLAS uses one thread.

    For independent, deterministic cases the results equal those of a
    serial run whose BLAS also uses one thread; threaded BLAS may round
    differently in the last bits. The single BLAS thread matters: on two
    CPUs, four rank selections took 144 s serially, 373 s in two forked
    workers that kept the parent's threaded BLAS, and 87 s in two
    single-threaded workers. The calling process keeps its own BLAS
    setting. Inside a worker, a cross-validated selection still fits each
    candidate's folds on ``linalg.parallel_workers()`` threads, which with
    BLAS on one thread is the worker's usable CPU count.
    Workers import the caller's main module, so a script that
    calls this needs the ``if __name__ == "__main__":`` guard; a worker
    that dies raises ``BrokenProcessPool`` naming that guard.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        # Workers start inside pool.map, so they all see the setting.
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(func, items))
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(
            "a worker process died before returning its result; the likely cause "
            "is a calling script without an 'if __name__ == \"__main__\":' guard, "
            "whose module-level code each spawned worker runs again on import"
        ) from exc
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _worker(args) -> ReplicateResult:
    return run_replicate(*args)


def run_benchmark(
    sim_cfg: SimConfig,
    reps: int,
    n_test: int | None = None,
    eta: float | str = 0.5,
    threads: int = 1,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> BenchmarkResult:
    """Run ``reps`` replicates, in ``threads`` worker processes when above 1.

    Workers are spawned with single-threaded BLAS (``map_single_threaded``,
    whose main-module caveat applies). Results are keyed by replicate
    index; they equal a serial run's under single-threaded BLAS, and
    differ from a serial run under threaded BLAS only by rounding (at most
    7e-15 relative on the MSEs at p = (150, 150), n = 150 on a 2-CPU VM).
    """
    jobs = [(sim_cfg, r, n_test, eta, max_iter, tol) for r in range(reps)]
    if threads > 1:
        results = map_single_threaded(_worker, jobs, workers=threads)
    else:
        results = [_worker(j) for j in jobs]
    unconverged = sum(r.unconverged for r in results)
    if unconverged:
        warnings.warn(
            f"{unconverged} of {2 * reps} replicate fits stopped at max_iter or on a rising "
            "sweep without converging; their test MSEs may be off",
            RuntimeWarning,
            stacklevel=2,
        )
    method_names = list(results[0].mses)
    return BenchmarkResult(replicates=results, methods=method_names)
