"""Replicated benchmark runs: generate, split, fit every method, score.

Generated data is already variance-scaled, so fits run on it directly and
test MSEs are on the standardized scale throughout (a mean-only predictor
scores about 1). Replicate r uses generator seed base_seed + r.

Replicates go through the one parallel map of the package,
``selection._in_order``, which also fits the CV folds: threads sized by
``linalg.parallel_workers()``, serial by default, and serial whenever it
is called off the main thread, so a cross-validated replicate on a pool
thread starts no second pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baselines import baseline_predict, fit_jive_predict, fit_pca_regression
from .core import FitConfig, Ranks, fit
from .errors import ConfigError
from .metrics import test_mse, win_rate
from .predict import estimate_scores, predict
from .selection import _in_order, make_cv_plan, select_model, warn_unconverged
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
    max_iter: int = FitConfig.max_iter,
    tol: float = FitConfig.tol,
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
    if n_test < 1:
        raise ConfigError(f"n_test must be at least 1, got {n_test}")
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


def run_benchmark(
    sim_cfg: SimConfig,
    reps: int,
    n_test: int | None = None,
    eta: float | str = 0.5,
    max_iter: int = FitConfig.max_iter,
    tol: float = FitConfig.tol,
) -> BenchmarkResult:
    """Run replicates 0..reps-1 on the package's parallel map (see the
    module docstring) and return them in order.

    With BLAS on one thread the results do not depend on the number of
    threads; ``OPENBLAS_NUM_THREADS=1`` on a 2-CPU machine runs two
    replicates at a time.
    """
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    results = list(_in_order(
        lambda rep: run_replicate(sim_cfg, rep, n_test, eta, max_iter, tol), range(reps)))
    warn_unconverged(sum(r.unconverged for r in results), 2 * reps, "replicate fits",
                     "test MSEs")
    method_names = list(results[0].mses)
    return BenchmarkResult(replicates=results, methods=method_names)
