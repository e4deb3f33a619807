"""Weight and rank selection by 5-fold cross validation.

Folds are contiguous chunks of a seeded shuffle of the sample indices, so
the split depends only on (n, seed). Every fold standardizes with its own
training moments; held-out samples are transformed with those same moments
and the test MSE is computed on the standardized scale.

Ranks are chosen by forward selection: starting from all zeros, each round
tries incrementing the joint rank and each block rank by one, keeps the
single increment with the largest drop in mean CV MSE, and stops once no
increment improves the best MSE by more than a small threshold.

``select_model`` is the one entry point: it searches the ranks (or takes
them as given), then the weight over a grid; a one-weight grid fixes the
weight and the ranks are searched at it. Each call standardizes every fold
once (``prepare_folds``) and reuses it for every candidate. The folds of
one candidate are fitted side by side by ``_in_order``, the package's one
parallel map, which also runs the replicates of ``bench.run_benchmark``.
It uses ``linalg.parallel_workers()`` threads, which is 1 (a serial loop)
unless a BLAS thread variable leaves CPUs free, and it runs serially when
called off the main thread; the results do not depend on the thread
count. Each call counts its fold fits that stopped at ``max_iter`` without
converging and reports the count in one RuntimeWarning.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import suppress
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

# Weight at which select_model searches the ranks when the grid has several.
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
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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

    def record(self, candidate: str, fold_mses: np.ndarray, unconverged: int = 0) -> float:
        mean = float(np.mean(fold_mses))
        self.candidates.append(
            {
                "candidate": candidate,
                "mean_mse": mean,
                "fold_mses": tuple(float(v) for v in fold_mses),
                "unconverged": unconverged,
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


def _fold_fit(fold: PreparedFold, cfg: FitConfig):
    """Held-out MSE and FitReport of one fold fit. ``fit`` is looked up on
    this module at call time, so a wrapped fit sees every fold fit."""
    model, report = fit(fold.train, fold.y_train, cfg)
    yhat = predict(model, estimate_scores(model, fold.test), standardized=True)
    return test_mse(fold.y_test, yhat), report


def _in_order(func, items):
    """Yield ``func(item)`` for each item in order, computed on
    ``parallel_workers()`` threads; one worker is a plain serial loop.

    This is the package's one parallel map: it fits the folds of a
    candidate and runs the replicates of ``bench.run_benchmark``. A call
    from any thread but the main one runs serially, so a selection inside
    a replicate on a pool thread starts no second pool.

    LAPACK releases the GIL, so fold fits overlap. The first error in item
    order is raised after the results before it, as a serial loop would
    raise it; items not yet started are then cancelled, and the pool is
    shut down before the error or the end of the results leaves.
    """
    workers = min(parallel_workers(), len(items))
    if workers <= 1 or threading.current_thread() is not threading.main_thread():
        yield from map(func, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(func, items)


def cv_fold_mses(
    folds: tuple[PreparedFold, ...],
    cfg: FitConfig,
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
    for f, (mse, report) in enumerate(_in_order(lambda fold: _fold_fit(fold, cfg), folds)):
        if reports is not None:
            reports.append(report)
        mses[f] = mse
    return mses


class _Candidates:
    """Fold MSEs and unconverged fold-fit count of (eta, ranks) candidates on
    folds prepared once; a candidate seen before is not refitted."""

    def __init__(self, data, y, plan, max_iter, tol, policy, reports):
        if plan is None:
            plan = make_cv_plan(data.n, seed=0)
        self.folds = prepare_folds(data, y, plan, policy)
        self.k, self.p = data.k, data.p
        self.n_train_min = min(fold.train.n for fold in self.folds)
        self.max_iter, self.tol = max_iter, tol
        self.reports = [] if reports is None else reports
        self._seen: dict = {}

    def __call__(self, eta: float, ranks: Ranks) -> tuple[np.ndarray, int]:
        key = (eta, ranks)
        if key not in self._seen:
            cfg = FitConfig(eta=eta, ranks=ranks, max_iter=self.max_iter, tol=self.tol)
            start = len(self.reports)
            mses = cv_fold_mses(self.folds, cfg, self.reports)
            self._seen[key] = mses, sum(not r.converged for r in self.reports[start:])
        return self._seen[key]


def warn_unconverged(count: int, total: int, fits: str = "cross-validation fold fits",
                     scores: str = "held-out MSEs") -> None:
    """One RuntimeWarning saying that ``count`` of ``total`` ``fits`` stopped
    at max_iter or on a rising sweep, so their ``scores`` may be off."""
    if count:
        warnings.warn(
            f"{count} of {total} {fits} stopped at max_iter or on a rising sweep without "
            f"converging; their {scores} may be off",
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
        mean = trace.record(f"eta={g:g}", *cv(g, ranks))
        if mean < best_mse:
            best_eta, best_mse = g, mean
    trace.chosen = f"eta={best_eta:g}"
    return best_eta, trace


def _rank_candidates(ranks: Ranks, p, n_train_min: int):
    """One-step increments that fit every fold, joint first then blocks in order."""
    cands = []
    for i, label in enumerate(["joint", *(f"block{b + 1}" for b in range(len(p)))]):
        joint, *ind = (v + (j == i) for j, v in enumerate((ranks.joint, *ranks.individual)))
        cand = Ranks(joint, tuple(ind))
        with suppress(RankError):
            cand.validate_for(p, n_train_min)
            cands.append((label, cand))
    return cands


def _search_ranks(cv: _Candidates, eta: float):
    trace = SelectionTrace()
    ranks = Ranks(0, (0,) * cv.k)
    best_mse = trace.record(f"({ranks})", *cv(eta, ranks))
    rounds = 0
    while True:
        rounds += 1
        best_step = None
        for label, cand in _rank_candidates(ranks, cv.p, cv.n_train_min):
            mean = trace.record(f"round{rounds}:{label}->({cand})", *cv(eta, cand))
            if best_step is None or mean < best_step[0]:
                best_step = (mean, label, cand)
        if best_step is None:
            break
        mean, label, cand = best_step
        if mean < best_mse - IMPROVEMENT_THRESHOLD:
            ranks = cand
            best_mse = mean
            trace.steps.append(
                {"round": rounds, "accepted": label, "ranks": f"({ranks})", "mean_mse": mean}
            )
        else:
            break
    trace.chosen = f"({ranks})"
    return ranks, trace


def select_model(
    data: MultiSourceDataset,
    y: Outcome,
    plan: CvPlan | None = None,
    eta_grid=DEFAULT_ETA_GRID,
    ranks: Ranks | None = None,
    iterate: bool = False,
    max_iter: int = FitConfig.max_iter,
    tol: float = FitConfig.tol,
    policy: str = "error",
    reports: list | None = None,
):
    """Cross-validated ranks and weight: ``(eta, ranks, rank_trace, eta_trace)``.

    Without ``ranks``, forward selection picks them at ``eta_grid[0]`` for a
    one-weight grid and at ``RANK_ETA`` otherwise; then the weight is
    searched at those ranks, unless all are zero (the search weight is then
    returned). ``iterate`` repeats both searches once if the chosen weight
    differs from the search weight. Given ``ranks`` leave ``rank_trace``
    without candidates, and cannot be combined with ``iterate``. Weight ties
    go to the first grid value; rank ties to the joint rank, then the lowest
    block index.

    Folds are prepared once per call, and a candidate (eta, ranks) seen
    before keeps its fold MSEs instead of being refitted. Every fold fit
    uses ``max_iter`` and ``tol``; ``policy`` is the fold standardization's
    zero-variance policy. Fold-fit reports are appended to ``reports`` when
    it is a list; otherwise the call's unconverged fold fits share one
    RuntimeWarning.
    """
    grid = _check_grid(eta_grid)
    if ranks is not None and iterate:
        raise ConfigError("iterate repeats the rank search, so it needs ranks=None")
    cv = _Candidates(data, y, plan, max_iter, tol, policy, reports)
    if ranks is not None:
        rank_trace = SelectionTrace(chosen=f"given: ({ranks})")
        eta, eta_trace = _search_eta(cv, ranks, grid)
    else:
        rank_eta = grid[0] if len(grid) == 1 else RANK_ETA
        ranks, rank_trace = _search_ranks(cv, rank_eta)
        if ranks.total == 0:
            eta, eta_trace = rank_eta, SelectionTrace(chosen="skipped: all ranks zero")
        else:
            eta, eta_trace = _search_eta(cv, ranks, grid)
            if iterate and eta != rank_eta:
                ranks, rank_trace = _search_ranks(cv, eta)
                if ranks.total > 0:
                    eta, eta_trace = _search_eta(cv, ranks, grid)
    if reports is None:
        warn_unconverged(sum(not r.converged for r in cv.reports), len(cv.reports))
    return eta, ranks, rank_trace, eta_trace
