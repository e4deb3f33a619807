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
coefficients. The loop iterates on the gauge-free parts (the joint part
[U; theta1] S_J and each [W_i; theta2_i] S_i), and the model's signed
factors come from one truncated SVD of each part of the last accepted
sweep. After convergence the stacked joint block [U; theta1] and each
stacked individual block [W_i; theta2_i] are rescaled to unit Frobenius norm
with the scores absorbing the scale, which pins down the otherwise free
gauge without changing any fitted value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import data as _data
from .data import BlockScaler, MultiSourceDataset, Outcome, OutcomeScaler, decompress_loadings
from .errors import ConfigError, DegeneracyError, RankError, ShapeError, SJiveError
from .linalg import RANK_TOL, regress_on_rows, top_pair, top_svd, unit_frame


@dataclass(frozen=True)
class Ranks:
    """Joint rank plus one individual rank per block; zero means absent."""

    joint: int
    individual: tuple[int, ...]

    def __post_init__(self):
        try:
            joint, *individual = map(operator.index, (self.joint, *self.individual))
        except TypeError:
            raise RankError(
                f"ranks must be integers, got {self.joint!r}, {self.individual!r}") from None
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "individual", tuple(individual))
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
        if not 0.0 < self.tol < np.inf:  # also rejects nan
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        try:
            self.max_iter = operator.index(self.max_iter)
        except TypeError:
            raise ConfigError(f"max_iter must be an integer, got {self.max_iter!r}") from None
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


def _pair_update(m: np.ndarray, r: int, floor: float):
    """The default path's update: the rank-r part of ``m`` from
    ``linalg.top_pair``, less the components with ||m v_j|| <= ``floor``,
    and the orthonormal basis (columns) of its row space."""
    mv, v = top_pair(m, r)
    keep = np.sqrt(np.sum(mv * mv, axis=0)) > floor
    if not keep.all():
        mv, v = mv[:, keep], v[:, keep]
    return mv @ v.T, v


def _factor(m: np.ndarray, r: int, floor: float):
    """``top_svd``'s rank-r factors of ``m`` as (u, scores, V): the score
    rows s_j v_j^T, zeroed where s_j <= ``floor``, and the kept right
    vectors V (columns)."""
    u, s, vt = top_svd(m, r)
    keep = s > floor
    return u, np.where(keep[:, None], s[:, None] * vt, 0.0), vt[keep].T


def _svd_update(m: np.ndarray, r: int, floor: float):
    """The reference path's update: ``_factor``'s part u @ scores of ``m``
    and its row basis."""
    u, scores, v = _factor(m, r, floor)
    return u @ scores, v


def _sweep(stacked, offsets, ranks: Ranks, parts, update):
    """One ALS sweep from the individual parts ``parts``; returns the new
    joint part, the new individual parts and their objective.
    ``update(matrix, r)`` returns the matrix's rank-r part, without the
    components that carry no signal (at most RANK_TOL ||stacked||_F), and
    an orthonormal basis (columns) of the part's row space.

    ``parts[i]`` is block i's fitted individual part stacked over its
    outcome row, F_i @ S_i; unlike F_i and S_i it has no gauge or sign
    freedom, and all zeros is the start state. The joint part is L @ S_J
    over all stacked rows. The arguments are not modified.

    Joint update: the best rank-r_J part of the data minus all individual
    parts. Individual updates: each block residual is projected onto the
    orthogonal complement of the joint part's row space, which keeps
    row(S_i) perpendicular to row(S_J).
    """
    R = stacked.copy()
    for (a, b), part in zip(offsets, parts):
        R[a:b] -= part[:-1]
    y_ind = sum(part[-1] for part in parts)
    R[-1] -= y_ind
    joint, V = update(R, ranks.joint)
    resid = stacked - joint
    new_parts = []
    for i, ((a, b), part) in enumerate(zip(offsets, parts)):
        y_others = y_ind - part[-1]
        Ri = np.vstack([resid[a:b], (resid[-1] - y_others)[None, :]])
        if V.shape[1]:
            along = Ri @ V
            Ri -= along @ V.T
            # When the projection removed nearly everything, the remainder is
            # mostly its rounding error, which lies along row(S_J); a second
            # pass removes it ("twice is enough").
            if np.linalg.norm(Ri) < 1e-3 * np.linalg.norm(along):
                Ri -= (Ri @ V) @ V.T
        new_parts.append(update(Ri, ranks.individual[i])[0])
        y_ind = y_others + new_parts[-1][-1]
    for (a, b), part in zip(offsets, new_parts):
        resid[a:b] -= part[:-1]
    resid[-1] -= y_ind
    return joint, new_parts, float(np.sum(resid * resid))


def _als(stacked, offsets, ranks: Ranks, max_iter: int, tol: float, compress: bool):
    """Sweeps until the objective stalls; returns the signed factors
    (L, S_J, F, S) of the last accepted sweep's parts, the objective trace,
    the iteration count and whether it converged. The default path
    (``compress``) updates by ``top_pair``, the reference path by a full
    ``top_svd``; on both, one ``top_svd`` of each final part (``_factor``)
    gives the factors.
    """
    floor = RANK_TOL * float(np.linalg.norm(stacked))
    update = partial(_pair_update if compress else _svd_update, floor=floor)
    start = [np.zeros((b - a + 1, stacked.shape[1])) for a, b in offsets]
    joint, parts, obj = _sweep(stacked, offsets, ranks, start, update)
    trace = [obj]
    # Absolute stop for exactly representable decompositions, far below any
    # tolerance a caller would use on real data.
    stop = 1e-18 * max(float(np.sum(stacked * stacked)), 1e-300)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_joint, new_parts, obj = _sweep(stacked, offsets, ranks, parts, update)
        prev = trace[-1]
        step = tol * max(prev, 1e-300)
        if obj - prev > step and obj > stop:
            # A rise beyond tol (and above the floor) is not convergence:
            # keep the previous sweep, report no convergence.
            break
        joint, parts = new_joint, new_parts
        trace.append(obj)
        if prev - obj <= step or obj <= stop:
            converged = True
            break
    L, S_J, _ = _factor(joint, ranks.joint, floor)
    indiv = [_factor(part, r, floor)[:2] for part, r in zip(parts, ranks.individual)]
    return (L, S_J, [f for f, _ in indiv], [s for _, s in indiv]), trace, iterations, converged


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
        # Shared, not copied: a model kept beside its data adds no list.
        variable_ids=data.variable_ids,
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
    samples are never compressed. Each update then takes the rank-r part
    from one ``linalg.top_pair``. ``compress=False`` is the reference path:
    raw blocks and a full LAPACK SVD (``linalg.top_svd``) per update, which
    the tests compare the default path against. On both paths the loop
    iterates on the fitted parts, and the model's signed factors come from
    one ``linalg.top_svd`` of each part of the last accepted sweep.
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
        stacked, offsets, cfg.ranks, cfg.max_iter, cfg.tol, compress)
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
    depend on the outcome. The joint frame and each individual frame are
    treated alike: a component whose score row is all zero carries no
    signal, so its loadings and coefficient are set to zero (new samples
    get zero scores there) and it is flagged in ``degenerate`` as
    "joint component j" or "individual i component j". A frame that is all
    zero is left unscaled and flagged as "joint" or "individual i" alone.
    """
    in_frame = model.eta < 1.0
    frames = [("joint", model.joint_loadings, model.joint_scores, model.theta_joint)]
    frames += [(f"individual {i + 1}", [w], s, th) for i, (w, s, th) in enumerate(
        zip(model.indiv_loadings, model.indiv_scores, model.theta_indiv or [None] * model.k))]
    flags, out = [], []
    for name, loadings, scores, theta in frames:
        dead = ~scores.any(axis=1)
        if dead.any():
            loadings = [np.where(dead, 0.0, u) for u in loadings]
            theta = None if theta is None else np.where(dead, 0.0, theta)
        framed = unit_frame(loadings, scores, theta, theta_in_norm=in_frame)
        if framed is not None:
            flags += [f"{name} component {j + 1}" for j in np.flatnonzero(dead)]
            loadings, scores, theta = framed
        elif scores.shape[0]:
            flags.append(name)
        out.append((loadings, scores, theta))
    (U, S_J, th1), *indiv = out
    return replace(
        model,
        joint_loadings=list(U),
        joint_scores=S_J,
        indiv_loadings=[w for (w,), _, _ in indiv],
        indiv_scores=[s for _, s, _ in indiv],
        theta_joint=th1,
        theta_indiv=None if model.theta_indiv is None else [th for *_, th in indiv],
        degenerate=tuple(flags),
    )
