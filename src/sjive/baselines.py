"""Comparator methods: JIVE.pred (the unsupervised decomposition plus a
post-hoc regression of the outcome on its scores) and principal-component
regression on the concatenated or a single block.

JIVE.pred is the supervised fit at eta = 1, so it predicts and scores
exactly like the supervised fit and test MSEs are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FitConfig, Ranks, _as_dataset, _outcome_values, fit
from .errors import ConfigError, ShapeError
from .linalg import regress_on_rows, top_svd


@dataclass
class BaselineModel:
    """One principal-component regression: loadings of the decomposed
    matrix (the stacked blocks when ``block`` is None, else that 0-based
    block), the training score rows and the outcome coefficients on them."""

    coefficients: np.ndarray
    loadings: np.ndarray
    scores: np.ndarray
    block: int | None = None


def fit_jive_predict(data, y, ranks: Ranks, cfg: FitConfig | None = None):
    """JIVE.pred: ``fit`` at eta = 1, where the decomposition ignores the
    outcome and the coefficients are the least-squares fit of the outcome on
    the score rows. ``cfg`` supplies max_iter and tol; its eta and ranks are
    replaced. Returns ``fit``'s (model, report)."""
    cfg = replace(cfg or FitConfig(eta=1.0, ranks=ranks), eta=1.0, ranks=ranks)
    return fit(data, y, cfg)


def fit_pca_regression(data, y, r: int, block: int | None = None) -> BaselineModel:
    """Rank-r principal-component regression on the stacked blocks, or on
    the single 0-based ``block``.

    The outcome is regressed on the r score rows without intercept, and new
    samples are scored by projecting onto the loadings. Raises RankError
    when r is outside 0..min(rows, cols) of the decomposed matrix.
    """
    data = _as_dataset(data)
    yv, _ = _outcome_values(y)
    if yv.size != data.n:
        raise ShapeError(f"outcome length {yv.size} does not match n = {data.n}")
    if block is None:
        mat = data.stacked()
    elif 0 <= block < data.k:
        mat = data.blocks[block]
    else:
        raise ConfigError(f"block index {block} outside 0..{data.k - 1}")
    loadings, s, vt = top_svd(mat, r)
    scores = s[:, None] * vt
    return BaselineModel(regress_on_rows(scores, yv), loadings, scores, block)


def baseline_predict(bm: BaselineModel, new_data) -> np.ndarray:
    """Standardized-scale outcome prediction for new (standardized) blocks."""
    data = _as_dataset(new_data)
    if bm.block is None:
        mat = data.stacked()
    elif bm.block < data.k:
        mat = data.blocks[bm.block]
    else:
        raise ShapeError("baseline block index outside the supplied data")
    if mat.shape[0] != bm.loadings.shape[0]:
        raise ShapeError(
            f"new data has {mat.shape[0]} variables, baseline was trained with "
            f"{bm.loadings.shape[0]}"
        )
    return bm.coefficients @ (bm.loadings.T @ mat)
