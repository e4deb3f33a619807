"""Property tests of the model's four invariants on both fit paths (tall
blocks compressed or not): the objective never rises, row(S_i) is
orthogonal to row(S_J), every stacked frame not flagged degenerate has unit
norm, and eta = 1 gives the unsupervised decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_unsupervised_decomposition
from sjive.core import FitConfig, Ranks, fit


@st.composite
def problems(draw, eta=None):
    """k = 1..4 random blocks with n = 3..8 samples, some of them tall
    (more variables than samples), ranks from 0 to their caps, an outcome
    and a weight in (0, 1]."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, 4))
    p = tuple(draw(st.lists(st.integers(1, 2 * n + 2), min_size=k, max_size=k)))
    joint = draw(st.integers(0, min(n, *p)))
    indiv = tuple(draw(st.integers(0, min(n, pi))) for pi in p)
    if eta is None:
        eta = draw(st.one_of(st.just(1.0),
                             st.floats(0.0, 1.0, exclude_min=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [rng.normal(size=(pi, n)) for pi in p]
    return blocks, rng.normal(size=n), FitConfig(eta=eta, ranks=Ranks(joint, indiv))


def _unit(a) -> np.ndarray:
    """a scaled to unit Frobenius norm (zero stays zero), computed without
    overflow for scores as large as 1e154 (at eta near 1e-308)."""
    if not a.any():
        return a
    a = a / np.abs(a).max()
    return a / np.linalg.norm(a)


@pytest.mark.parametrize("compress", [True, False])
@settings(max_examples=60, deadline=None)
@given(problem=problems())
def test_fit_invariants(compress, problem):
    blocks, y, cfg = problem
    model, report = fit(blocks, y, cfg, compress=compress)
    trace = np.asarray(report.objective_trace)
    # Relative to the objective, or to the fit's floor for exactly
    # representable data (1e-18 of the weighted data's squared norm), below
    # which the objective is rounding error.
    scale = cfg.eta * sum(float(np.sum(b * b)) for b in blocks)
    if cfg.eta < 1.0:
        scale += (1.0 - cfg.eta) * float(y @ y)
    assert np.all(np.diff(trace) <= 1e-10 * np.maximum(trace[:-1], 1e-18 * scale))
    for s in model.indiv_scores:
        assert np.abs(_unit(model.joint_scores) @ _unit(s).T).max(initial=0.0) <= 1e-8
    # At eta = 1 the coefficients are fitted afterwards and stay outside the frame.
    supervised = cfg.eta < 1.0
    frames = []
    if cfg.ranks.joint and "joint" not in model.degenerate:
        frames.append(model.stacked_joint_frame() if supervised
                      else np.vstack(model.joint_loadings))
    for i, r in enumerate(cfg.ranks.individual):
        if r and f"individual {i + 1}" not in model.degenerate:
            frames.append(model.stacked_indiv_frame(i) if supervised else model.indiv_loadings[i])
    for frame in frames:
        assert np.linalg.norm(frame) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("compress", [True, False])
@settings(max_examples=30, deadline=None)
@given(problem=problems(eta=1.0))
def test_eta_one_matches_reference_decomposition(compress, problem):
    blocks, y, cfg = problem
    _, report = fit(blocks, y, cfg, compress=compress)
    *_, trace = reference_unsupervised_decomposition(
        blocks, cfg.ranks.joint, cfg.ranks.individual, max_iter=cfg.max_iter, tol=cfg.tol)
    # Either side may stop one sweep apart, where one sweep gains at most tol.
    scale = sum(float(np.sum(b * b)) for b in blocks)
    assert report.final_objective == pytest.approx(trace[-1], rel=2 * cfg.tol, abs=1e-12 * scale)
