"""Supervised joint/individual low-rank decomposition fitted by alternating
SVD updates.

The model splits k standardized blocks X_i (p_i x n) into a joint part
U_i S_J shared across blocks and per-block individual parts W_i S_i, while a
linear predictor theta1 S_J + sum_i theta2_i S_i tracks a standardized
outcome y. A weight eta in (0, 1] trades off reconstruction of X against
prediction of y; eta = 1 reduces to the unsupervised decomposition.

Fitting distributes the weights into the data (X scaled by sqrt(eta), y by
sqrt(1 - eta)) so each update is a plain least-squares/SVD step on a stacked
matrix; the weights are divided back out of the returned loadings and
coefficients. After convergence the stacked joint block [U; theta1] and each
stacked individual block [W_i; theta2_i] are rescaled to unit Frobenius norm
with the scores absorbing the scale, which pins down the otherwise free
gauge without changing any fitted value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as _data
from .data import BlockScaler, MultiSourceDataset, Outcome, OutcomeScaler, decompress_loadings
from .errors import ConfigError, DegeneracyError, RankError, ShapeError, SJiveError
from .linalg import rank_mask, regress_on_rows, top_factors, top_svd, unit_frame


@dataclass(frozen=True)
class Ranks:
    """Joint rank plus one individual rank per block; zero means absent."""

    joint: int
    individual: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "individual", tuple(int(r) for r in self.individual))
        if self.joint < 0 or any(r < 0 for r in self.individual):
            raise RankError("ranks must be nonnegative")

    @property
    def total(self) -> int:
        return self.joint + sum(self.individual)

    def __str__(self) -> str:
        """Comma-separated "joint,r_1,..,r_k", as ``--ranks`` spells them."""
        return ",".join(str(r) for r in (self.joint, *self.individual))

    def validate_for(self, p: tuple[int, ...], n: int) -> None:
        if len(self.individual) != len(p):
            raise RankError(
                f"{len(self.individual)} individual ranks for {len(p)} blocks"
            )
        joint_cap = min(n, *p)
        if self.joint > joint_cap:
            raise RankError(f"joint rank {self.joint} exceeds min(n, p_i) = {joint_cap}")
        for i, (r, pi) in enumerate(zip(self.individual, p)):
            if r > min(n, pi):
                raise RankError(
                    f"block {i + 1} rank {r} exceeds min(n, p_{i + 1}) = {min(n, pi)}"
                )


@dataclass
class FitConfig:
    """Knobs for one fit: weight, ranks, iteration budget, tolerance."""

    eta: float
    ranks: Ranks
    max_iter: int = 1000
    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")


@dataclass
class FitReport:
    objective_trace: list[float]
    iterations: int
    converged: bool
    final_objective: float


@dataclass
class SJiveModel:
    """Fitted loadings, scores and outcome coefficients.

    ``theta_joint``/``theta_indiv`` are None for purely unsupervised fits.
    Standardization metadata from the training data rides along so new data
    can be transformed consistently and predictions mapped back to the raw
    outcome scale. ``sample_ids`` names the training samples, the columns of
    the scores.
    """

    joint_loadings: list[np.ndarray]
    joint_scores: np.ndarray
    indiv_loadings: list[np.ndarray]
    indiv_scores: list[np.ndarray]
    theta_joint: np.ndarray | None
    theta_indiv: list[np.ndarray] | None
    eta: float
    ranks: Ranks
    block_scalers: list[BlockScaler] | None = None
    outcome_scaler: OutcomeScaler | None = None
    variable_ids: list[list[str]] | None = None
    sample_ids: list[str] | None = None
    degenerate: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.joint_loadings)

    @property
    def n(self) -> int:
        return self.joint_scores.shape[1]

    @property
    def p(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.joint_loadings)

    def joint_structure(self) -> list[np.ndarray]:
        return [u @ self.joint_scores for u in self.joint_loadings]

    def individual_structure(self) -> list[np.ndarray]:
        return [w @ s for w, s in zip(self.indiv_loadings, self.indiv_scores)]

    def fitted_blocks(self) -> list[np.ndarray]:
        return [j + a for j, a in zip(self.joint_structure(), self.individual_structure())]

    def fitted_outcome(self) -> np.ndarray | None:
        """Standardized-scale fitted outcome, or None without coefficients."""
        if self.theta_joint is None:
            return None
        yhat = self.theta_joint @ self.joint_scores
        for th, s in zip(self.theta_indiv, self.indiv_scores):
            yhat = yhat + th @ s
        return yhat

    def stacked_joint_frame(self) -> np.ndarray:
        parts = list(self.joint_loadings)
        if self.theta_joint is not None:
            parts.append(self.theta_joint[None, :])
        return np.vstack(parts)

    def stacked_indiv_frame(self, i: int) -> np.ndarray:
        parts = [self.indiv_loadings[i]]
        if self.theta_indiv is not None:
            parts.append(self.theta_indiv[i][None, :])
        return np.vstack(parts)


def _as_dataset(data) -> MultiSourceDataset:
    if isinstance(data, MultiSourceDataset):
        return data
    return MultiSourceDataset.from_arrays(list(data))


def _outcome_values(y):
    if y is None:
        return None, None
    if isinstance(y, Outcome):
        return y.values, y.standardization
    vals = np.asarray(y, dtype=float).reshape(-1)
    return vals, None


def _truncated_left_scores(m: np.ndarray, r: int, factorize):
    """Top-r left singular vectors L, scores L^T m, and an orthonormal basis
    (columns) of the row space of the scores; ``factorize`` is ``top_svd``
    or ``top_factors``."""
    u, s, vt = factorize(m, r)
    return u, s[:, None] * vt, vt[rank_mask(s)].T


def _sweep(stacked, offsets, ranks: Ranks, parts, factorize):
    """One ALS sweep from the individual parts ``parts``; returns the new
    factors (L, S_J, F, S), the new parts and their objective.
    ``factorize(matrix, r)`` returns the signed top-r SVD factors.

    ``parts[i]`` is block i's fitted individual part stacked over its
    outcome row, F_i @ S_i; unlike F_i and S_i it has no gauge or sign
    freedom, and all zeros is the start state. The arguments are not
    modified.

    Joint update: best rank-r_J factors of the data minus all individual
    parts, taken in one SVD so loadings and scores stay consistent.
    Individual updates: each block residual is projected onto the orthogonal
    complement of the joint score rows, which keeps row(S_i) perpendicular
    to row(S_J).
    """
    R = stacked.copy()
    for (a, b), part in zip(offsets, parts):
        R[a:b] -= part[:-1]
    y_ind = sum(part[-1] for part in parts)
    R[-1] -= y_ind
    L, S_J, V = _truncated_left_scores(R, ranks.joint, factorize)
    # Components whose singular value fails rank_mask (a joint rank above
    # the data's row rank) are rounding error: zero their scores. V holds
    # the kept ones, which come first.
    S_J[V.shape[1]:] = 0.0
    resid = stacked - L @ S_J
    F, S, new_parts = [], [], []
    for i, ((a, b), part) in enumerate(zip(offsets, parts)):
        y_others = y_ind - part[-1]
        Ri = np.vstack([resid[a:b], (resid[-1] - y_others)[None, :]])
        if ranks.joint == Ri.shape[1]:
            # Rank n reproduces any n-column matrix, so the joint part takes
            # everything; what the projection would leave is rounding error.
            Ri[:] = 0.0
        elif V.shape[1]:
            along = Ri @ V
            Ri -= along @ V.T
            # When the projection removed nearly everything, the remainder is
            # mostly its rounding error, which lies along row(S_J); a second
            # pass removes it ("twice is enough").
            if np.linalg.norm(Ri) < 1e-3 * np.linalg.norm(along):
                Ri -= (Ri @ V) @ V.T
        Fi, Si, _ = _truncated_left_scores(Ri, ranks.individual[i], factorize)
        F.append(Fi)
        S.append(Si)
        new_parts.append(Fi @ Si)
        y_ind = y_others + new_parts[-1][-1]
    for (a, b), part in zip(offsets, new_parts):
        resid[a:b] -= part[:-1]
    resid[-1] -= y_ind
    return (L, S_J, F, S), new_parts, float(np.sum(resid * resid))


def _als(stacked, offsets, ranks: Ranks, max_iter: int, tol: float, factorize):
    parts = [np.zeros((b - a + 1, stacked.shape[1])) for a, b in offsets]
    factors, parts, obj = _sweep(stacked, offsets, ranks, parts, factorize)
    trace = [obj]
    # Absolute stop for exactly representable decompositions, far below any
    # tolerance a caller would use on real data.
    floor = 1e-18 * max(float(np.sum(stacked * stacked)), 1e-300)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_factors, new_parts, obj = _sweep(stacked, offsets, ranks, parts, factorize)
        prev = trace[-1]
        step = tol * max(prev, 1e-300)
        if obj - prev > step and obj > floor:
            # A rise beyond tol (and above the floor) is not convergence:
            # keep the previous sweep's factors, report no convergence.
            break
        factors, parts = new_factors, new_parts
        trace.append(obj)
        if prev - obj <= step or obj <= floor:
            converged = True
            break
    return factors, trace, iterations, converged


def _build_model(factors, cfg: FitConfig, offsets, cbs, yvals, data, yscaler):
    L, S_J, F, S = factors
    rt_eta = np.sqrt(cfg.eta)
    U = [L[a:b] / rt_eta for a, b in offsets]
    W = [f[:-1] / rt_eta for f in F]
    for i, cb in enumerate(cbs):
        if cb is not None:
            U[i] = decompress_loadings(cb, U[i])
            W[i] = decompress_loadings(cb, W[i])
    if yvals is None:
        th1, th2 = None, None
    elif cfg.eta < 1.0:
        rt = np.sqrt(1.0 - cfg.eta)
        th1 = L[-1] / rt
        th2 = [f[-1] / rt for f in F]
    else:
        # With all weight on X the outcome row is zero inside the loop, so
        # the coefficients come from a post-hoc regression on the scores.
        theta = regress_on_rows(np.vstack([S_J, *S]), yvals)
        th1, *th2 = np.split(theta, np.cumsum([S_J.shape[0], *(s.shape[0] for s in S)])[:-1])
    return SJiveModel(
        joint_loadings=U,
        joint_scores=S_J.copy(),
        indiv_loadings=W,
        indiv_scores=[s.copy() for s in S],
        theta_joint=th1,
        theta_indiv=th2,
        eta=cfg.eta,
        ranks=cfg.ranks,
        block_scalers=data.standardization,
        outcome_scaler=yscaler,
        variable_ids=[list(v) for v in data.variable_ids],
        # Shared, not copied: a model kept beside its data adds no list.
        sample_ids=data.sample_ids,
    )


def objective(data, y, model: SJiveModel) -> float:
    """Weighted reconstruction-plus-prediction loss of a model on data.

    eta * sum_i ||X_i - U_i S_J - W_i S_i||_F^2
    + (1 - eta) * ||y - theta1 S_J - sum_i theta2_i S_i||^2.
    """
    data = _as_dataset(data)
    yvals, _ = _outcome_values(y)
    if data.k != model.k:
        raise ShapeError(f"model has {model.k} blocks, data has {data.k}")
    total = 0.0
    for i in range(data.k):
        if data.blocks[i].shape[0] != model.joint_loadings[i].shape[0]:
            raise ShapeError(
                f"block {i + 1}: data has {data.blocks[i].shape[0]} variables, "
                f"model has {model.joint_loadings[i].shape[0]}"
            )
        resid = (
            data.blocks[i]
            - model.joint_loadings[i] @ model.joint_scores
            - model.indiv_loadings[i] @ model.indiv_scores[i]
        )
        total += model.eta * float(np.sum(resid * resid))
    if model.eta < 1.0:
        if yvals is None:
            raise SJiveError("objective with eta < 1 requires an outcome")
        if yvals.size != data.n:
            raise ShapeError(f"outcome length {yvals.size} does not match n = {data.n}")
        yhat = model.fitted_outcome()
        if yhat is None:
            raise SJiveError("model has no outcome coefficients")
        r = yvals - yhat
        total += (1.0 - model.eta) * float(np.sum(r * r))
    return total


def fit(data, y, cfg: FitConfig, compress: bool = True):
    """Fit the decomposition by alternating exact block updates.

    While ``compress`` is on (the default), each block with more variables
    than samples is replaced during the iterations by its SVD score
    representation, and the result is mapped back to variable space
    (equivalent up to floating point); blocks with no more variables than
    samples are never compressed. Each update then takes its top factors
    from ``linalg.top_factors``. ``compress=False`` is the reference path:
    raw blocks and a full LAPACK SVD (``linalg.top_svd``) per update, which
    the tests compare the default path against.
    Returns (model, report); ``report.converged`` is False when the
    iteration budget ran out, in which case the best model so far is
    returned, or when a sweep raised the objective by more than ``tol``
    relative, in which case the model and ``objective_trace`` end at the
    sweep before it.
    """
    data = _as_dataset(data)
    yvals, yscaler = _outcome_values(y)
    if yvals is None and cfg.eta < 1.0:
        raise ConfigError("eta < 1 requires an outcome")
    if yvals is not None:
        if yvals.size != data.n:
            raise ShapeError(f"outcome length {yvals.size} does not match n = {data.n}")
        if yvals.size > 1 and float(np.std(yvals, ddof=1)) <= 1e-12 * (
            1.0 + abs(float(np.mean(yvals)))
        ):
            raise DegeneracyError("outcome is constant; fit is undefined")
    cfg.ranks.validate_for(data.p, data.n)
    # Looked up on the module at call time, so a wrapped data.compress sees
    # every call.
    cbs = [_data.compress(b) if compress and b.shape[0] > b.shape[1] else None
           for b in data.blocks]
    work = [b if cb is None else cb.scores for b, cb in zip(data.blocks, cbs)]
    edges = np.cumsum([0, *(b.shape[0] for b in work)])
    offsets = list(zip(edges[:-1], edges[1:]))
    stacked = np.vstack([*work, np.zeros((1, data.n))])
    stacked[:-1] *= np.sqrt(cfg.eta)
    if yvals is not None and cfg.eta < 1.0:
        stacked[-1] = yvals * np.sqrt(1.0 - cfg.eta)
    factors, trace, iterations, converged = _als(
        stacked, offsets, cfg.ranks, cfg.max_iter, cfg.tol,
        top_factors if compress else top_svd,
    )
    model = _build_model(factors, cfg, offsets, cbs, yvals, data, yscaler)
    report = FitReport(
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        final_objective=trace[-1],
    )
    return rescale_identifiable(model), report


def rescale_identifiable(model: SJiveModel) -> SJiveModel:
    """Scale each stacked loading block to unit Frobenius norm, with the
    scores absorbing the factor so all fitted values are unchanged.

    For supervised fits (eta < 1) the outcome coefficients are part of the
    stacked blocks; at eta = 1 they were obtained post hoc and stay outside
    the norm, so the unsupervised decomposition keeps a gauge that does not
    depend on the outcome. All-zero blocks are left untouched and flagged
    in ``degenerate``; so are individual parts whose scores are all zero,
    after their loadings and coefficients are set to zero, so new samples
    get zero scores there. A joint component whose score row is all zero
    is treated the same way and flagged as "joint component j".
    """
    in_frame = model.eta < 1.0
    U, S_J, th1 = model.joint_loadings, model.joint_scores, model.theta_joint
    W, S = list(model.indiv_loadings), list(model.indiv_scores)
    th2 = None if model.theta_indiv is None else list(model.theta_indiv)
    flags = []
    if model.ranks.joint > 0:
        dead = ~S_J.any(axis=1)
        if dead.any():
            U = [np.where(dead, 0.0, u) for u in U]
            th1 = None if th1 is None else np.where(dead, 0.0, th1)
            flags += [f"joint component {j + 1}" for j in np.flatnonzero(dead)]
        framed = unit_frame(U, S_J, th1, theta_in_norm=in_frame)
        if framed is None:
            flags.append("joint")
        else:
            U, S_J, th1 = framed
    for i, r in enumerate(model.ranks.individual):
        if r == 0:
            continue
        if not S[i].any():
            # Nothing left outside row(S_J) (joint rank n): the loadings came
            # from the SVD of a zero matrix and carry no structure.
            W[i] = np.zeros_like(W[i])
            if th2 is not None:
                th2[i] = np.zeros_like(th2[i])
        framed = unit_frame([W[i]], S[i], None if th2 is None else th2[i],
                            theta_in_norm=in_frame)
        if framed is None:
            flags.append(f"individual {i + 1}")
            continue
        (W[i],), S[i], theta = framed
        if th2 is not None:
            th2[i] = theta
    return replace(
        model,
        joint_loadings=list(U),
        joint_scores=S_J,
        indiv_loadings=W,
        indiv_scores=S,
        theta_joint=th1,
        theta_indiv=th2,
        degenerate=tuple(flags),
    )
