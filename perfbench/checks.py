"""Correctness checks on the program's outputs, in plain numpy.

Each check compares an output with an independent computation or with a
property the method must have, never with stored output, and raises
CheckFailed with the reason when the output is wrong.
"""

from __future__ import annotations

import numpy as np

# Largest relative rise of the objective between iterations.
DESCENT_TOL = 1e-10
# Largest |S_J S_i^T| relative to |S_J| |S_i|.
ORTHO_TOL = 1e-8
# Largest deviation of a stacked frame's Frobenius norm from 1.
NORM_TOL = 1e-8
# Largest loss mismatch relative to the weighted energy of the data.
LOSS_TOL = 1e-8
# Held-out MSE must stay within this factor of the noise floor.
FLOOR_FACTOR = 2.0
# Program predictions against closed-form score estimates, relative to the
# outcome's spread; the program stops its alternation at a tolerance.
PREDICTION_TOL = 1e-3


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _fail(what: str, detail: str):
    raise CheckFailed(f"{what}: {detail}")


def standardize_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows to mean 0 and sample variance 1; returns (z, means, sds)."""
    means = block.mean(axis=1)
    sds = block.std(axis=1, ddof=1)
    return (block - means[:, None]) / sds[:, None], means, sds


def check_descent(trace) -> None:
    tr = np.asarray(trace, dtype=float)
    if tr.size < 2:
        return
    rises = np.diff(tr) / np.maximum(tr[:-1], 1.0)
    if rises.max() > DESCENT_TOL:
        i = int(np.argmax(rises))
        _fail("objective rose", f"iteration {i + 1}: {tr[i]!r} -> {tr[i + 1]!r}")


def check_structure(model) -> None:
    """row(S_i) is orthogonal to row(S_J) and every stacked frame has unit norm."""
    s_joint = model.joint_scores
    nj = np.linalg.norm(s_joint)
    for i, s in enumerate(model.indiv_scores):
        ni = np.linalg.norm(s)
        if nj == 0.0 or ni == 0.0:
            continue
        cross = np.linalg.norm(s_joint @ s.T) / (nj * ni)
        if cross > ORTHO_TOL:
            _fail("scores not orthogonal", f"block {i + 1}: |S_J S_i^T| relative {cross:.3e}")
    in_frame = model.eta < 1.0 and model.theta_joint is not None
    frames = []
    if model.ranks.joint > 0:
        parts = [u.ravel() for u in model.joint_loadings]
        if in_frame:
            parts.append(model.theta_joint.ravel())
        frames.append(("joint", np.concatenate(parts)))
    for i, r in enumerate(model.ranks.individual):
        if r > 0:
            parts = [model.indiv_loadings[i].ravel()]
            if in_frame:
                parts.append(model.theta_indiv[i].ravel())
            frames.append((f"individual {i + 1}", np.concatenate(parts)))
    for name, frame in frames:
        if name in model.degenerate:
            continue
        dev = abs(float(np.linalg.norm(frame)) - 1.0)
        if dev > NORM_TOL:
            _fail("frame norm not 1", f"{name} frame deviates by {dev:.3e}")


def weighted_loss(model, blocks, y) -> float:
    """eta sum_i |X_i - U_i S_J - W_i S_i|^2 + (1 - eta) |y - yhat|^2."""
    eta = model.eta
    total = 0.0
    for x, u, w, s in zip(blocks, model.joint_loadings, model.indiv_loadings, model.indiv_scores):
        r = x - u @ model.joint_scores - w @ s
        total += eta * float(np.sum(r * r))
    if eta < 1.0:
        yhat = model.theta_joint @ model.joint_scores
        for t, s in zip(model.theta_indiv, model.indiv_scores):
            yhat = yhat + t @ s
        r = y - yhat
        total += (1.0 - eta) * float(r @ r)
    return total


def check_loss(model, final_objective: float, blocks, y) -> None:
    """The reported final objective equals the loss recomputed on data the
    caller standardized itself; on compressed fits this checks that
    compression lost nothing."""
    loss = weighted_loss(model, blocks, y)
    energy = model.eta * sum(float(np.sum(x * x)) for x in blocks)
    if model.eta < 1.0:
        energy += (1.0 - model.eta) * float(y @ y)
    if abs(loss - final_objective) > LOSS_TOL * max(energy, abs(final_objective)):
        _fail("loss mismatch", f"recomputed {loss!r}, reported {final_objective!r}")


def check_fit(model, report, blocks, y) -> None:
    check_descent(report.objective_trace)
    check_structure(model)
    check_loss(model, report.final_objective, blocks, y)


def closed_form_prediction(model, blocks) -> np.ndarray:
    """Standardized-scale prediction from scores that minimize the
    reconstruction error of the new blocks in one least-squares solve."""
    k = len(blocks)
    r_i = [s.shape[0] for s in model.indiv_scores]
    rows = []
    for i in range(k):
        parts = [model.joint_loadings[i]]
        for j in range(k):
            width = r_i[j]
            parts.append(model.indiv_loadings[i] if j == i else np.zeros((blocks[i].shape[0], width)))
        rows.append(np.hstack(parts))
    design = np.vstack(rows)
    scores = np.linalg.lstsq(design, np.vstack(blocks), rcond=None)[0]
    coef = np.concatenate([model.theta_joint, *model.theta_indiv])
    return coef @ scores


def check_prediction(reported, independent, spread: float, what: str) -> None:
    gap = float(np.max(np.abs(np.asarray(reported) - np.asarray(independent))))
    if gap > PREDICTION_TOL * spread:
        _fail(f"{what} disagrees with closed-form scores", f"max gap {gap:.3e}")


def check_heldout(mse: float, mean_only: float, floor: float, what: str) -> None:
    if not mse < mean_only:
        _fail(f"{what} held-out MSE", f"{mse:.4g} not below mean-only {mean_only:.4g}")
    if mse > FLOOR_FACTOR * floor:
        _fail(f"{what} held-out MSE", f"{mse:.4g} above {FLOOR_FACTOR} x noise floor {floor:.4g}")


def check_eta_choice(eta: float, eta_trace, grid) -> None:
    """The chosen weight is the first minimum of the weight trace."""
    means = [c["mean_mse"] for c in eta_trace.candidates]
    if len(means) != len(grid):
        _fail("eta trace", f"{len(means)} candidates for a grid of {len(grid)}")
    best = float(grid[int(np.argmin(means))])
    if eta != best:
        _fail("eta choice", f"chose {eta}, trace minimum is at {best}")


def check_rank_steps(ranks, rank_trace, threshold: float) -> None:
    """Each accepted rank step beat the incumbent mean CV MSE by more than
    the threshold, and the chosen ranks are the last accepted step's."""
    best = rank_trace.candidates[0]["mean_mse"]
    for step in rank_trace.steps:
        if not step["mean_mse"] < best - threshold:
            _fail("rank step", f"round {step['round']} accepted {step['mean_mse']!r} "
                               f"against incumbent {best!r}")
        best = step["mean_mse"]
    chosen = "(" + ",".join(str(v) for v in (ranks.joint, *ranks.individual)) + ")"
    last = rank_trace.steps[-1]["ranks"] if rank_trace.steps else rank_trace.candidates[0]["candidate"]
    if chosen != last:
        _fail("rank choice", f"chose {chosen}, last accepted step is {last}")


def check_identical(a, b, what: str) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or not np.array_equal(a, b):
        _fail(what, "values are not bit-identical")
