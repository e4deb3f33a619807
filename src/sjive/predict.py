"""Out-of-sample score estimation and outcome prediction.

Loadings from a fitted model are held fixed while joint and individual
scores for new samples minimize the reconstruction objective
sum_i ||X*_i - U_i S_J - W_i S_i||_F^2. That is one linear least-squares
problem in all scores at once, solved through the pseudo-inverted Gram
matrix of the loadings, so the result does not depend on the loading
gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SJiveModel, _as_dataset
from .data import destandardize_outcome
from .errors import ShapeError, SJiveError
from .linalg import RANK_TOL


@dataclass
class ScoreEstimate:
    """Estimated scores for m new samples.

    ``iterations`` and ``converged`` stay for callers that record them; the
    one-step solve always reports 1 and True.
    """

    joint_scores: np.ndarray
    indiv_scores: list[np.ndarray]
    iterations: int
    converged: bool


def _check_blocks(model: SJiveModel, data):
    data = _as_dataset(data)
    if data.k != model.k:
        raise ShapeError(f"model has {model.k} blocks, new data has {data.k}")
    for i, (block, u) in enumerate(zip(data.blocks, model.joint_loadings)):
        if block.shape[0] != u.shape[0]:
            raise ShapeError(
                f"block {i + 1}: new data has {block.shape[0]} variables, "
                f"model was trained with {u.shape[0]}"
            )
    return data


def estimate_scores(model: SJiveModel, new_data) -> ScoreEstimate:
    """Least-squares joint and individual scores for new samples.

    New blocks must already be standardized with the training moments. With
    Z = [U | blockdiag(W_1..W_k)] the scores solve min ||X - Z S||_F in one
    step, S = pinv(Z^T Z) Z^T X; Z^T Z and Z^T X are assembled block by block
    without forming Z. When Z is rank-deficient the pseudo-inverse picks the
    minimum-norm scores.
    """
    data = _check_blocks(model, new_data)
    m = data.n
    r_j = model.ranks.joint
    widths = [r_j] + [w.shape[1] for w in model.indiv_loadings]
    edges = np.cumsum([0] + widths)
    gram = np.zeros((edges[-1], edges[-1]))
    rhs = np.zeros((edges[-1], m))
    for i, (x, u, w) in enumerate(zip(data.blocks, model.joint_loadings, model.indiv_loadings)):
        a, b = edges[i + 1], edges[i + 2]
        gram[:r_j, :r_j] += u.T @ u
        gram[:r_j, a:b] = u.T @ w
        gram[a:b, :r_j] = gram[:r_j, a:b].T
        gram[a:b, a:b] = w.T @ w
        rhs[:r_j] += u.T @ x
        rhs[a:b] = w.T @ x
    scores = np.linalg.pinv(gram, rcond=RANK_TOL, hermitian=True) @ rhs
    joint, *indiv = np.split(scores, edges[1:-1])
    return ScoreEstimate(
        joint_scores=joint,
        indiv_scores=indiv,
        iterations=1,
        converged=True,
    )


def predict(model: SJiveModel, scores: ScoreEstimate, standardized: bool = False) -> np.ndarray:
    """Outcome prediction theta1 S_J + sum_i theta2_i S_i for estimated scores.

    By default the result is mapped back to the raw outcome scale with the
    training mean and sd; ``standardized=True`` returns the model-scale
    values (the convention used for test-MSE reporting).
    """
    if model.theta_joint is None:
        raise SJiveError(
            "model has no outcome coefficients; fit with an outcome or use "
            "fit_jive_predict"
        )
    if scores.joint_scores.shape[0] != model.ranks.joint:
        raise ShapeError(
            f"joint scores have rank {scores.joint_scores.shape[0]}, "
            f"model expects {model.ranks.joint}"
        )
    yhat = model.theta_joint @ scores.joint_scores
    for i, (th, s) in enumerate(zip(model.theta_indiv, scores.indiv_scores)):
        if s.shape[0] != th.size:
            raise ShapeError(
                f"block {i + 1} scores have rank {s.shape[0]}, model expects {th.size}"
            )
        yhat = yhat + th @ s
    if standardized:
        return yhat
    return destandardize_outcome(yhat, model.outcome_scaler)
