"""Evaluation metrics: test MSE, component recovery, partial R^2 / F tests,
meta-loadings and win rates across replicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SJiveModel
from .errors import DegeneracyError, ShapeError, SJiveError


def test_mse(y_true, y_pred) -> float:
    """Mean squared difference; both vectors on the standardized scale."""
    a = np.asarray(y_true, dtype=float).reshape(-1)
    b = np.asarray(y_pred, dtype=float).reshape(-1)
    if a.size != b.size:
        raise ShapeError(f"length mismatch: {a.size} vs {b.size}")
    return float(np.mean((a - b) ** 2))


def recovery_error(estimated, truth) -> float:
    """Squared Frobenius error of an estimated component, relative to the
    squared norm of the true component."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ShapeError(f"shape mismatch: {est.shape} vs {tru.shape}")
    denom = float(np.sum(tru * tru))
    if denom == 0.0:
        raise DegeneracyError("true component has zero norm")
    return float(np.sum((est - tru) ** 2)) / denom


def _f_sf(f_stat: float, d1: int, d2: int) -> float:
    """Upper tail of the F distribution via the regularized incomplete beta."""
    # Imported here: scipy roughly doubles the import time of the package
    # and of every CLI call, and only the F tests need it.
    from scipy.special import betainc

    if f_stat <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f_stat)
    return float(betainc(d2 / 2.0, d1 / 2.0, x))


@dataclass
class ComponentInference:
    name: str
    rank: int
    partial_r2: float
    f_stat: float
    p_value: float


def _sse(design: np.ndarray, y: np.ndarray) -> float:
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ coef
    return float(r @ r)


def component_inference(model: SJiveModel, y) -> list[ComponentInference]:
    """Partial R^2 and F test of each score group in the linear model of the
    training outcome on all score rows (with intercept).

    Partial R^2 is the drop in SSE from adding the group, relative to the
    total corrected sum of squares, i.e. the share of outcome variation the
    group explains beyond the other components.
    """
    yv = np.asarray(y.values if hasattr(y, "values") else y, dtype=float).reshape(-1)
    n = model.n
    if yv.size != n:
        raise ShapeError(f"outcome length {yv.size} does not match n = {n}")
    groups = [("joint", model.joint_scores)]
    for i, s in enumerate(model.indiv_scores):
        groups.append((f"block{i + 1}", s))
    total_rank = sum(g.shape[0] for _, g in groups)
    if total_rank + 1 >= n:
        raise DegeneracyError(
            f"inference unavailable: total rank {total_rank} too large for n = {n}"
        )
    cols = [np.ones((n, 1))] + [g.T for _, g in groups]
    design_full = np.hstack(cols)
    sse_full = _sse(design_full, yv)
    sst = float(np.sum((yv - yv.mean()) ** 2))
    if sst == 0.0:
        raise DegeneracyError("outcome is constant")
    df_resid = n - total_rank - 1
    out = []
    for j, (name, g) in enumerate(groups):
        q = g.shape[0]
        if q == 0:
            out.append(ComponentInference(name, 0, 0.0, float("nan"), float("nan")))
            continue
        reduced = np.hstack([c for i, c in enumerate(cols) if i != j + 1])
        sse_red = _sse(reduced, yv)
        gain = max(sse_red - sse_full, 0.0)
        partial_r2 = gain / sst
        if sse_full <= 0.0:
            f_stat, p = float("inf"), 0.0
        else:
            f_stat = (gain / q) / (sse_full / df_resid)
            p = _f_sf(f_stat, q, df_resid)
        out.append(ComponentInference(name, q, partial_r2, f_stat, p))
    return out


def meta_loadings(model: SJiveModel) -> list[np.ndarray]:
    """Per-variable importance: joint plus individual loadings, each weighted
    by its outcome coefficients."""
    if model.theta_joint is None:
        raise SJiveError(
            "model has no outcome coefficients; use fit_jive_predict (or fit "
            "with an outcome) before computing meta-loadings"
        )
    out = []
    for i in range(model.k):
        m = model.joint_loadings[i] @ model.theta_joint
        m = m + model.indiv_loadings[i] @ model.theta_indiv[i]
        out.append(m)
    return out


def win_rate(method_mses: dict[str, np.ndarray]) -> dict[str, float]:
    """Percentage of replicates each method attains the minimum MSE.

    Exact ties split their replicate's credit equally, so the percentages
    always sum to 100.
    """
    if not method_mses:
        raise ShapeError("need at least one method")
    names = list(method_mses)
    table = np.vstack([np.asarray(method_mses[m], dtype=float).reshape(-1) for m in names])
    if table.shape[1] < 1:
        raise ShapeError("need at least one replicate")
    if table.shape[0] < 2:
        raise ShapeError("need at least two methods to compare")
    wins = np.zeros(len(names))
    for rep in range(table.shape[1]):
        col = table[:, rep]
        best = col.min()
        tied = np.nonzero(col == best)[0]
        wins[tied] += 1.0 / tied.size
    return {m: float(100.0 * w / table.shape[1]) for m, w in zip(names, wins)}

