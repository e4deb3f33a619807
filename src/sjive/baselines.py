"""Comparator methods: unsupervised decomposition plus post-hoc regression,
and principal-component regression on the concatenated or a single block.

All baselines standardize, predict and score exactly like the supervised
fit, so test MSEs are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FitConfig, Ranks, SJiveModel, _as_dataset, fit
from .data import destandardize_outcome
from .errors import ConfigError, ShapeError
from .linalg import regress_on_rows, top_svd
from .predict import estimate_scores, predict


@dataclass
class BaselineModel:
    """One fitted comparator.

    kind picks the layout: "jive_predict" wraps a full decomposition model,
    the PCA kinds hold a single loading matrix (stacked over blocks for
    "concat_pca", one block for "individual_pca") and regression
    coefficients for the score rows. ``converged`` is False when the
    decomposition behind "jive_predict" stopped at max_iter.
    """

    kind: str
    rank: int
    coefficients: np.ndarray
    loadings: np.ndarray | None = None
    scores: np.ndarray | None = None
    block: int | None = None
    model: SJiveModel | None = None
    outcome_scaler: object = None
    converged: bool = True


def _unsupervised_cfg(ranks: Ranks, cfg: FitConfig | None) -> FitConfig:
    if cfg is None:
        return FitConfig(eta=1.0, ranks=ranks)
    return FitConfig(eta=1.0, ranks=ranks, max_iter=cfg.max_iter, tol=cfg.tol)


def fit_jive(data, ranks: Ranks, cfg: FitConfig | None = None):
    """Unsupervised joint/individual decomposition: the supervised fit with
    all weight on X and no outcome terms. Coefficients are left unset."""
    return fit(_as_dataset(data), None, _unsupervised_cfg(ranks, cfg))


def fit_jive_predict(data, y, ranks: Ranks, cfg: FitConfig | None = None) -> BaselineModel:
    """Two-step baseline: unsupervised decomposition, then least squares of
    the outcome on the stacked score rows (one parameter per rank)."""
    model, report = fit(_as_dataset(data), y, _unsupervised_cfg(ranks, cfg))
    theta = np.concatenate([model.theta_joint, *model.theta_indiv])
    return BaselineModel(
        kind="jive_predict",
        rank=ranks.total,
        coefficients=theta,
        model=model,
        converged=report.converged,
    )


def fit_pca_regression(data, y, r: int, mode: str, block: int | None = None) -> BaselineModel:
    """Rank-r principal-component regression.

    mode "concatenated" decomposes the stacked blocks; mode "per_block"
    decomposes the single block selected by ``block`` (0-based). The outcome
    is regressed on the r score rows without intercept, and new samples are
    scored by projecting onto the loadings. Raises RankError when r is
    outside 0..min(rows, cols) of the decomposed matrix.
    """
    data = _as_dataset(data)
    yv = np.asarray(y.values if hasattr(y, "values") else y, dtype=float).reshape(-1)
    yscaler = y.standardization if hasattr(y, "standardization") else None
    if yv.size != data.n:
        raise ShapeError(f"outcome length {yv.size} does not match n = {data.n}")
    if mode == "concatenated":
        mat = data.stacked()
        which = None
    elif mode == "per_block":
        if block is None or not 0 <= block < data.k:
            raise ConfigError("per_block mode needs a valid 0-based block index")
        mat = data.blocks[block]
        which = block
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    loadings, s, vt = top_svd(mat, r)
    scores = s[:, None] * vt
    coefs = regress_on_rows(scores, yv)
    return BaselineModel(
        kind="concat_pca" if mode == "concatenated" else "individual_pca",
        rank=r,
        coefficients=coefs,
        loadings=loadings,
        scores=scores,
        block=which,
        outcome_scaler=yscaler,
    )


def baseline_predict(bm: BaselineModel, new_data, standardized: bool = True) -> np.ndarray:
    """Standardized-scale outcome prediction for new (standardized) blocks."""
    data = _as_dataset(new_data)
    if bm.kind == "jive_predict":
        est = estimate_scores(bm.model, data)
        return predict(bm.model, est, standardized=standardized)
    if bm.kind == "concat_pca":
        mat = data.stacked()
    else:
        if bm.block is None or bm.block >= data.k:
            raise ShapeError("baseline block index outside the supplied data")
        mat = data.blocks[bm.block]
    if mat.shape[0] != bm.loadings.shape[0]:
        raise ShapeError(
            f"new data has {mat.shape[0]} variables, baseline was trained with "
            f"{bm.loadings.shape[0]}"
        )
    scores = bm.loadings.T @ mat
    yhat = bm.coefficients @ scores if bm.rank else np.zeros(mat.shape[1])
    if standardized:
        return yhat
    return destandardize_outcome(yhat, bm.outcome_scaler)


def baseline_training_fit(bm: BaselineModel) -> np.ndarray:
    """In-sample standardized fitted outcome of a PCA baseline."""
    if bm.kind == "jive_predict":
        return bm.model.fitted_outcome()
    if bm.rank == 0:
        return np.zeros(bm.scores.shape[1])
    return bm.coefficients @ bm.scores
