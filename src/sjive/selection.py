"""Weight and rank selection by 5-fold cross validation.

Folds are contiguous chunks of a seeded shuffle of the sample indices, so
the split depends only on (n, seed). Every fold standardizes with its own
training moments; held-out samples are transformed with those same moments
and the test MSE is computed on the standardized scale.

Ranks are chosen by forward selection: starting from all zeros, each round
tries incrementing the joint rank and each block rank by one, keeps the
single increment with the largest drop in mean CV MSE, and stops once no
increment improves the best MSE by more than a small threshold.

Each ``select_*`` call standardizes every fold once (``prepare_folds``) and
reuses it for every candidate. The folds of one candidate are fitted side by
side on ``linalg.parallel_workers()`` threads, which is 1 (a serial loop)
unless a BLAS thread variable leaves CPUs free; the results do not depend
on the thread count. Each call counts its fold fits that stopped at
``max_iter`` without converging and reports the count in one RuntimeWarning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import FitConfig, Ranks, fit
from .data import MultiSourceDataset, Outcome, standardize, standardize_outcome_with, standardize_with
from .errors import ConfigError, DegeneracyError, RankError
from .linalg import parallel_workers
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


@dataclass(frozen=True)
class PreparedFold:
    """One fold, ready for any candidate: the training samples standardized
    with their own moments, the held-out samples transformed with those
    moments, and both outcomes on the training outcome's scale."""

    train: MultiSourceDataset
    y_train: Outcome
    test: MultiSourceDataset
    y_test: np.ndarray


def prepare_folds(
    data: MultiSourceDataset, y: Outcome, plan: CvPlan, policy: str = "error"
) -> tuple[PreparedFold, ...]:
    """Standardize every fold of ``plan`` once, for all the candidates that
    ``cv_fold_mses`` evaluates on it.

    ``policy`` is the zero-variance policy of each fold's standardization
    (see ``standardize``). A variable or outcome constant on a fold's
    training samples raises an error that names the fold.
    """
    if plan.n != data.n:
        raise ConfigError(f"plan was built for n = {plan.n}, data has n = {data.n}")
    all_idx = np.arange(data.n)
    folds = []
    for f, test_idx in enumerate(plan.folds):
        train_idx = np.setdiff1d(all_idx, test_idx)
        try:
            train, y_train = standardize(data.subset_samples(train_idx),
                                         Outcome(y.values[train_idx]), policy=policy)
        except DegeneracyError as exc:
            raise DegeneracyError(f"fold {f + 1} training samples: {exc}") from None
        folds.append(PreparedFold(
            train=train,
            y_train=y_train,
            test=standardize_with(data.subset_samples(test_idx), train.standardization),
            y_test=standardize_outcome_with(y.values[test_idx], y_train.standardization),
        ))
    return tuple(folds)


def _fold_fit(fold: PreparedFold, cfg: FitConfig, compress):
    """Held-out MSE and FitReport of one fold fit. ``fit`` is looked up on
    this module at call time, so a wrapped fit sees every fold fit."""
    model, report = fit(fold.train, fold.y_train, cfg, compress=compress)
    yhat = predict(model, estimate_scores(model, fold.test), standardized=True)
    return test_mse(fold.y_test, yhat), report


def _in_order(func, items):
    """Yield ``func(item)`` for each item in order, computed on
    ``parallel_workers()`` threads; one worker is a plain serial loop.

    LAPACK releases the GIL, so fold fits overlap. The first error in item
    order is raised after the results before it, as a serial loop would
    raise it; items not yet started are then cancelled, and the pool is
    shut down before the error or the end of the results leaves.
    """
    workers = min(parallel_workers(), len(items))
    if workers <= 1:
        yield from map(func, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(func, items)


def cv_fold_mses(
    folds: tuple[PreparedFold, ...],
    cfg: FitConfig,
    compress=True,
    reports: list | None = None,
) -> np.ndarray:
    """Standardized-scale test MSE of each fold's held-out samples, for the
    folds of ``prepare_folds``.

    A rank that does not fit a fold's training samples raises an error
    that names the fold. The fold fits run side by side when
    ``parallel_workers()`` allows; results are the same either way. When
    ``reports`` is a list, every fold fit's FitReport is appended to it in
    fold order.
    """
    for f, fold in enumerate(folds):
        try:
            cfg.ranks.validate_for(fold.train.p, fold.train.n)
        except RankError as exc:
            raise RankError(f"fold {f + 1}: {exc}") from None
    mses = np.empty(len(folds))
    for f, (mse, report) in enumerate(_in_order(lambda fold: _fold_fit(fold, cfg, compress), folds)):
        if reports is not None:
            reports.append(report)
        mses[f] = mse
    return mses


class _Candidates:
    """Cross-validates (eta, ranks) candidates on folds prepared once; a
    candidate seen before returns its fold MSEs without refitting."""

    def __init__(self, data, y, plan, compress, max_iter, tol, policy, reports):
        if plan is None:
            plan = make_cv_plan(data.n, seed=0)
        self.folds = prepare_folds(data, y, plan, policy)
        self.k, self.p = data.k, data.p
        self.n_train_min = min(fold.train.n for fold in self.folds)
        self.compress, self.max_iter, self.tol = compress, max_iter, tol
        self.reports = [] if reports is None else reports
        self._seen: dict = {}

    def __call__(self, eta: float, ranks: Ranks) -> np.ndarray:
        key = (eta, ranks)
        if key not in self._seen:
            cfg = FitConfig(eta=eta, ranks=ranks, max_iter=self.max_iter, tol=self.tol)
            self._seen[key] = cv_fold_mses(self.folds, cfg, self.compress, self.reports)
        return self._seen[key]


def warn_unconverged(reports: list) -> None:
    """One RuntimeWarning counting the fold fits that stopped at max_iter."""
    count = sum(not r.converged for r in reports)
    if count:
        warnings.warn(
            f"{count} of {len(reports)} cross-validation fold fits stopped at "
            "max_iter without converging; their held-out MSEs may be off",
            RuntimeWarning,
            stacklevel=3,
        )


def _check_grid(grid) -> tuple[float, ...]:
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ConfigError("eta grid must be nonempty")
    for g in grid:
        if not 0.0 < g <= 1.0:
            raise ConfigError(f"eta grid value {g} outside (0, 1]")
    return grid


def _search_eta(cv: _Candidates, ranks: Ranks, grid):
    trace = SelectionTrace()
    best_eta, best_mse = None, np.inf
    for g in grid:
        mean = trace.record(f"eta={g:g}", cv(g, ranks))
        if mean < best_mse:
            best_eta, best_mse = g, mean
    trace.chosen = f"eta={best_eta:g}"
    return best_eta, trace


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
    grid = _check_grid(grid)
    cv = _Candidates(data, y, plan, compress, max_iter, tol, policy, reports)
    eta, trace = _search_eta(cv, ranks, grid)
    if reports is None:
        warn_unconverged(cv.reports)
    return eta, trace


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


def _search_ranks(cv: _Candidates, eta: float):
    trace = SelectionTrace()
    ranks = Ranks(0, (0,) * cv.k)
    best_mse = trace.record("(0" + ",0" * cv.k + ")", cv(eta, ranks))
    rounds = 0
    while True:
        rounds += 1
        best_step = None
        for label, cand in _rank_candidates(ranks, cv.p, cv.n_train_min):
            name = f"round{rounds}:{label}->" + _fmt_ranks(cand)
            mean = trace.record(name, cv(eta, cand))
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
    return ranks, trace


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
    cv = _Candidates(data, y, plan, compress, max_iter, tol, policy, reports)
    ranks, trace = _search_ranks(cv, eta)
    if reports is None:
        warn_unconverged(cv.reports)
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
    max_iter: int = 1000,
    tol: float = 1e-6,
    policy: str = "error",
    reports: list | None = None,
):
    """Full selection pipeline: ranks at a fixed weight, then the weight at
    the chosen ranks; optionally one more rank pass at the chosen weight.

    The folds are prepared once for the whole pipeline, and an (eta, ranks)
    candidate that an earlier pass already cross-validated (the rank
    search's choice at ``RANK_ETA``) keeps its fold MSEs instead of being
    refitted. Every fold fit uses ``max_iter`` and ``tol``. Fold-fit
    reports are appended to ``reports`` when it is a list; otherwise the
    unconverged fold fits of the whole pipeline share one RuntimeWarning.
    """
    grid = _check_grid(eta_grid)
    cv = _Candidates(data, y, plan, compress, max_iter, tol, policy, reports)
    ranks, rank_trace = _search_ranks(cv, RANK_ETA)
    if ranks.total == 0:
        eta, eta_trace = RANK_ETA, SelectionTrace(chosen="skipped: all ranks zero")
    else:
        eta, eta_trace = _search_eta(cv, ranks, grid)
        if iterate and eta != RANK_ETA:
            ranks, rank_trace = _search_ranks(cv, eta)
            if ranks.total > 0:
                eta, eta_trace = _search_eta(cv, ranks, grid)
    if reports is None:
        warn_unconverged(cv.reports)
    return eta, ranks, rank_trace, eta_trace
