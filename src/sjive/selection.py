"""Weight and rank selection by 5-fold cross validation.

Folds are contiguous chunks of a seeded shuffle of the sample indices, so
the split depends only on (n, seed). Every fold standardizes with its own
training moments; held-out samples are transformed with those same moments
and the test MSE is computed on the standardized scale.

Ranks are chosen by forward selection: starting from all zeros, each round
tries incrementing the joint rank and each block rank by one, keeps the
single increment with the largest drop in mean CV MSE, and stops once no
increment improves the best MSE by more than a small threshold.

Each ``select_*`` call counts its fold fits that stopped at ``max_iter``
without converging and reports the count in one RuntimeWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import FitConfig, Ranks, fit
from .data import MultiSourceDataset, Outcome, standardize, standardize_outcome_with, standardize_with
from .errors import ConfigError, RankError
from .metrics import test_mse
from .predict import estimate_scores, predict

# An increment must beat the incumbent mean CV MSE by this much to count.
IMPROVEMENT_THRESHOLD = 1e-4

# Weight at which select_model searches the ranks before searching the weight.
RANK_ETA = 0.5

DEFAULT_ETA_GRID = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40,
                    0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85,
                    0.90, 0.95, 0.99)


@dataclass(frozen=True)
class CvPlan:
    """Partition of sample indices into folds."""

    folds: tuple[np.ndarray, ...]
    seed: int
    n: int


def make_cv_plan(n: int, seed: int, n_folds: int = 5) -> CvPlan:
    if n_folds < 2 or n_folds > n:
        raise ConfigError(f"need 2 <= folds <= n, got {n_folds} folds for n = {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = tuple(np.sort(chunk) for chunk in np.array_split(perm, n_folds))
    return CvPlan(folds=folds, seed=seed, n=n)


@dataclass
class SelectionTrace:
    """Candidate-by-candidate record of a selection run."""

    candidates: list[dict] = field(default_factory=list)
    chosen: str = ""
    steps: list[dict] = field(default_factory=list)

    def record(self, candidate: str, fold_mses: np.ndarray) -> float:
        mean = float(np.mean(fold_mses))
        self.candidates.append(
            {
                "candidate": candidate,
                "mean_mse": mean,
                "fold_mses": tuple(float(v) for v in fold_mses),
            }
        )
        return mean


def cv_fold_mses(
    data: MultiSourceDataset,
    y: Outcome,
    cfg: FitConfig,
    plan: CvPlan,
    compress=True,
    policy: str = "error",
    reports: list | None = None,
) -> np.ndarray:
    """Standardized-scale test MSE of each fold's held-out samples.

    ``policy`` is the zero-variance policy of each fold's standardization
    (see ``standardize``). When ``reports`` is a list, every fold fit's
    FitReport is appended to it.
    """
    if plan.n != data.n:
        raise ConfigError(f"plan was built for n = {plan.n}, data has n = {data.n}")
    mses = np.empty(len(plan.folds))
    all_idx = np.arange(data.n)
    for f, test_idx in enumerate(plan.folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        n_train = train_idx.size
        try:
            cfg.ranks.validate_for(data.p, n_train)
        except RankError as exc:
            raise RankError(f"fold {f + 1}: {exc}") from None
        train = data.subset_samples(train_idx)
        test = data.subset_samples(test_idx)
        y_train = Outcome(y.values[train_idx])
        train_std, y_std = standardize(train, y_train, policy=policy)
        test_std = standardize_with(test, train_std.standardization)
        y_test_std = standardize_outcome_with(y.values[test_idx], y_std.standardization)
        model, report = fit(train_std, y_std, cfg, compress=compress)
        if reports is not None:
            reports.append(report)
        scores = estimate_scores(model, test_std)
        yhat = predict(model, scores, standardized=True)
        mses[f] = test_mse(y_test_std, yhat)
    return mses


def _warn_unconverged(reports: list) -> None:
    count = sum(not r.converged for r in reports)
    if count:
        warnings.warn(
            f"{count} of {len(reports)} cross-validation fold fits stopped at "
            "max_iter without converging; their held-out MSEs may be off",
            RuntimeWarning,
            stacklevel=3,
        )


def select_eta(
    data: MultiSourceDataset,
    y: Outcome,
    ranks: Ranks,
    grid=DEFAULT_ETA_GRID,
    plan: CvPlan | None = None,
    compress=True,
    max_iter: int = 1000,
    tol: float = 1e-6,
    policy: str = "error",
    reports: list | None = None,
):
    """Grid search for the weight with the lowest mean CV MSE.

    Ties go to the first grid value attaining the minimum. ``policy`` is
    the zero-variance policy of the fold standardization. Fold-fit reports
    are appended to ``reports`` when it is a list; otherwise fold fits that
    stopped without converging are counted in one RuntimeWarning.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ConfigError("eta grid must be nonempty")
    for g in grid:
        if not 0.0 < g <= 1.0:
            raise ConfigError(f"eta grid value {g} outside (0, 1]")
    if plan is None:
        plan = make_cv_plan(data.n, seed=0)
    fold_reports = [] if reports is None else reports
    trace = SelectionTrace()
    best_eta, best_mse = None, np.inf
    for g in grid:
        cfg = FitConfig(eta=g, ranks=ranks, max_iter=max_iter, tol=tol)
        mses = cv_fold_mses(data, y, cfg, plan, compress=compress, policy=policy,
                            reports=fold_reports)
        mean = trace.record(f"eta={g:g}", mses)
        if mean < best_mse:
            best_eta, best_mse = g, mean
    trace.chosen = f"eta={best_eta:g}"
    if reports is None:
        _warn_unconverged(fold_reports)
    return best_eta, trace


def _rank_candidates(ranks: Ranks, p, n_train_min: int):
    """Feasible one-step increments, joint first then blocks in order."""
    cands = []
    if ranks.joint + 1 <= min(n_train_min, *p):
        cands.append(("joint", Ranks(ranks.joint + 1, ranks.individual)))
    for i, (r, pi) in enumerate(zip(ranks.individual, p)):
        if r + 1 <= min(n_train_min, pi):
            ind = list(ranks.individual)
            ind[i] += 1
            cands.append((f"block{i + 1}", Ranks(ranks.joint, tuple(ind))))
    return cands


def select_ranks(
    data: MultiSourceDataset,
    y: Outcome,
    eta: float,
    plan: CvPlan | None = None,
    compress=True,
    max_iter: int = 1000,
    tol: float = 1e-6,
    policy: str = "error",
    reports: list | None = None,
):
    """Forward-selection rank search at a fixed weight.

    Ties between equally good increments prefer the joint rank, then the
    lowest block index (the candidate order below). ``policy`` and
    ``reports`` work as in ``select_eta``.
    """
    if plan is None:
        plan = make_cv_plan(data.n, seed=0)
    n_train_min = min(data.n - f.size for f in plan.folds)
    trace = SelectionTrace()
    ranks = Ranks(0, (0,) * data.k)
    fold_reports = [] if reports is None else reports

    def cv(cand):
        cfg = FitConfig(eta=eta, ranks=cand, max_iter=max_iter, tol=tol)
        return cv_fold_mses(data, y, cfg, plan, compress=compress, policy=policy,
                            reports=fold_reports)

    best_mse = trace.record("(0" + ",0" * data.k + ")", cv(ranks))
    rounds = 0
    while True:
        rounds += 1
        best_step = None
        for label, cand in _rank_candidates(ranks, data.p, n_train_min):
            name = f"round{rounds}:{label}->" + _fmt_ranks(cand)
            mean = trace.record(name, cv(cand))
            if best_step is None or mean < best_step[0]:
                best_step = (mean, label, cand)
        if best_step is None:
            break
        mean, label, cand = best_step
        if mean < best_mse - IMPROVEMENT_THRESHOLD:
            ranks = cand
            best_mse = mean
            trace.steps.append(
                {"round": rounds, "accepted": label, "ranks": _fmt_ranks(ranks), "mean_mse": mean}
            )
        else:
            break
    trace.chosen = _fmt_ranks(ranks)
    if reports is None:
        _warn_unconverged(fold_reports)
    return ranks, trace


def _fmt_ranks(ranks: Ranks) -> str:
    return "(" + ",".join(str(v) for v in (ranks.joint, *ranks.individual)) + ")"


def select_model(
    data: MultiSourceDataset,
    y: Outcome,
    plan: CvPlan | None = None,
    eta_grid=DEFAULT_ETA_GRID,
    iterate: bool = False,
    compress=True,
    policy: str = "error",
):
    """Full selection pipeline: ranks at a fixed weight, then the weight at
    the chosen ranks; optionally one more rank pass at the chosen weight.
    Unconverged fold fits of the whole pipeline share one RuntimeWarning."""
    if plan is None:
        plan = make_cv_plan(data.n, seed=0)
    reports: list = []
    common = dict(compress=compress, policy=policy, reports=reports)
    ranks, rank_trace = select_ranks(data, y, RANK_ETA, plan, **common)
    if ranks.total == 0:
        eta, eta_trace = RANK_ETA, SelectionTrace(chosen="skipped: all ranks zero")
    else:
        eta, eta_trace = select_eta(data, y, ranks, eta_grid, plan, **common)
        if iterate and eta != RANK_ETA:
            ranks, rank_trace = select_ranks(data, y, eta, plan, **common)
            if ranks.total > 0:
                eta, eta_trace = select_eta(data, y, ranks, eta_grid, plan, **common)
    _warn_unconverged(reports)
    return eta, ranks, rank_trace, eta_trace
