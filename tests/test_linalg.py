import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sjive.errors import DegeneracyError, InputError, RankError, ShapeError
from sjive.linalg import (
    proj_complement_rows,
    qr_orthonormalize,
    rank_mask,
    regress_on_rows,
    top_factors,
    top_svd,
    unit_frame,
)


def _reconstruct(u, s, vt):
    return (u * s) @ vt


# The squared Frobenius norm of a stacked frame is what unit_frame divides
# out; these three check that sum of squares.
def test_frobenius_sq_known_values():
    loadings, scores, _ = unit_frame([np.array([[3.0], [4.0]])], np.ones((1, 2)))
    assert loadings[0][:, 0] == pytest.approx([0.6, 0.8], rel=1e-15)
    assert scores == pytest.approx(np.full((1, 2), 5.0), rel=1e-15)
    _, scores, _ = unit_frame([np.eye(2)], np.ones((2, 1)), np.zeros(2))
    assert scores == pytest.approx(np.full((2, 1), np.sqrt(2.0)), rel=1e-15)


def test_frobenius_sq_matches_scalar_loop():
    rng = np.random.default_rng(42)
    parts = [rng.normal(size=(5, 4)), rng.normal(size=(3, 4))]
    theta = rng.normal(size=4)
    total = 0.0
    for part in parts:
        for i in range(part.shape[0]):
            for j in range(part.shape[1]):
                total += part[i, j] ** 2
    scores = rng.normal(size=(4, 6))
    # theta outside the norm is still divided, so theta @ scores is kept
    loadings, new_scores, new_theta = unit_frame(parts, scores, theta, theta_in_norm=False)
    assert new_scores == pytest.approx(scores * np.sqrt(total), rel=1e-14)
    assert new_theta @ new_scores == pytest.approx(theta @ scores, rel=1e-12)
    total += sum(t ** 2 for t in theta)
    loadings, new_scores, new_theta = unit_frame(parts, scores, theta)
    assert new_scores == pytest.approx(scores * np.sqrt(total), rel=1e-14)
    nsq = sum(float(np.sum(u * u)) for u in loadings) + float(np.sum(new_theta ** 2))
    assert nsq == pytest.approx(1.0, rel=1e-14)
    for u, part in zip(loadings, parts):
        assert u @ new_scores == pytest.approx(part @ scores, rel=1e-12)


def test_frobenius_sq_zero_iff_zero_matrix():
    assert unit_frame([np.zeros((3, 2))], np.ones((2, 4))) is None
    assert unit_frame([np.zeros((3, 2))], np.ones((2, 4)), np.zeros(2)) is None
    assert unit_frame([np.array([[0.0, 1e-150]])], np.ones((2, 1))) is not None


def test_unit_frame_overflowing_squares_do_not_warn():
    # Squares of 1e160 overflow; the norm is rescaled without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (loadings,), scores, _ = unit_frame([np.full((3, 2), 1e160)], np.ones((2, 4)))
    assert loadings == pytest.approx(np.full((3, 2), 1.0 / np.sqrt(6.0)), rel=1e-15)
    assert scores == pytest.approx(np.full((2, 4), 1e160 * np.sqrt(6.0)), rel=1e-15)


def test_svd_truncated_diagonal():
    u, s, vt = top_svd(np.diag([3.0, 2.0]), 1)
    assert s == pytest.approx([3.0])
    assert u[:, 0] == pytest.approx([1.0, 0.0])
    assert vt[0] == pytest.approx([1.0, 0.0])


def test_svd_truncated_full_rank_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 4))
    err = np.linalg.norm(a - _reconstruct(*top_svd(a, 4))) / np.linalg.norm(a)
    assert err < 1e-8
    assert np.array_equal(_reconstruct(*top_svd(a)), _reconstruct(*top_svd(a, 4)))


def _power_iteration_sv(a, iters=5000):
    # Independent oracle for the dominant singular value.
    rng = np.random.default_rng(0)
    v = rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(a @ v))


def test_svd_truncated_rank2_matrix():
    rng = np.random.default_rng(11)
    u1, u2 = rng.normal(size=6), rng.normal(size=6)
    v1, v2 = rng.normal(size=6), rng.normal(size=6)
    a = 5.0 * np.outer(u1, v1) + 2.0 * np.outer(u2, v2)
    assert np.sum((a - _reconstruct(*top_svd(a, 2))) ** 2) < 1e-10

    sigma1 = _power_iteration_sv(a)
    f1 = top_svd(a, 1)
    sigma2 = _power_iteration_sv(a - _reconstruct(*f1))
    assert f1[1][0] == pytest.approx(sigma1, rel=1e-8)
    assert np.sum((a - _reconstruct(*f1)) ** 2) == pytest.approx(sigma2**2, rel=1e-6)


def test_svd_truncated_discarded_energy():
    # Residual energy equals the sum of squared discarded singular values.
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 5))
    s = np.linalg.svd(a, compute_uv=False)
    for r in (1, 2, 4):
        expected = float(np.sum(s[r:] ** 2))
        got = float(np.sum((a - _reconstruct(*top_svd(a, r))) ** 2))
        assert got == pytest.approx(expected, rel=1e-8)


def test_svd_truncated_rank_errors():
    a = np.eye(3)
    with pytest.raises(RankError):
        top_svd(a, -1)
    with pytest.raises(RankError):
        top_svd(a, 4)
    with pytest.raises(InputError):
        top_svd([[np.inf, 0.0], [0.0, 1.0]], 1)
    # rank 0 is valid and returns empty factors
    u, s, vt = top_svd(np.ones((4, 3)), 0)
    assert (u.shape, s.shape, vt.shape) == ((4, 0), (0,), (0, 3))


def test_svd_truncated_deterministic_sign():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 4))
    u1, _, vt1 = top_svd(a, 3)
    u2, _, vt2 = top_svd(a.copy(), 3)
    assert np.array_equal(u1, u2)
    assert np.array_equal(vt1, vt2)
    for j in range(3):
        col = u1[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_qr_orthonormalize_diagonal():
    q = qr_orthonormalize([[1.0, 0.0], [0.0, 2.0]])
    assert np.abs(q) == pytest.approx(np.eye(2))


def test_qr_orthonormalize_single_column():
    q = qr_orthonormalize([[1.0], [1.0]])
    assert np.abs(q[:, 0]) == pytest.approx([1 / np.sqrt(2)] * 2)


def test_qr_orthonormalize_random():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(10, 3))
    q = qr_orthonormalize(a)
    assert q.T @ q == pytest.approx(np.eye(3), abs=1e-10)
    assert q @ (q.T @ a) == pytest.approx(a, abs=1e-8)


def test_qr_orthonormalize_rank_deficient():
    a = np.ones((4, 2))
    with pytest.raises(DegeneracyError):
        qr_orthonormalize(a)
    with pytest.raises(ShapeError):
        qr_orthonormalize(np.ones((2, 4)))


def test_proj_complement_single_row():
    p = proj_complement_rows([[1.0, 0.0, 0.0]])
    assert p == pytest.approx(np.diag([0.0, 1.0, 1.0]))


def test_proj_complement_zero_rows():
    p = proj_complement_rows(np.zeros((1, 3)))
    assert p == pytest.approx(np.eye(3))


def test_proj_complement_random():
    rng = np.random.default_rng(13)
    s = rng.normal(size=(2, 6))
    p = proj_complement_rows(s)
    assert p @ p == pytest.approx(p, abs=1e-10)
    assert s @ p == pytest.approx(np.zeros((2, 6)), abs=1e-10)
    rank = int(np.sum(np.linalg.svd(s, compute_uv=False) > 1e-10))
    assert np.trace(p) == pytest.approx(6 - rank, abs=1e-8)


def test_proj_complement_rank_deficient_rows():
    # Duplicated rows must still give an exact projector via the pseudoinverse.
    s = np.array([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 2.0]])
    p = proj_complement_rows(s)
    assert p @ p == pytest.approx(p, abs=1e-10)
    assert s @ p == pytest.approx(np.zeros_like(s), abs=1e-10)
    assert np.trace(p) == pytest.approx(3.0, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_proj_complement_properties(r, n, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(r, n))
    if seed % 3 == 0 and r > 1:
        s[-1] = s[0]  # force rank deficiency
    p = proj_complement_rows(s)
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(s @ p, 0.0, atol=1e-8 * max(1.0, np.abs(s).max()))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_svd_minimality_property(m, n, r, low_rank, seed):
    # top_svd: sign rule, truncation equal bit for bit to truncating the
    # full output, the r = 0 shortcut, and minimal discarded energy.
    r = min(r, m, n)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    if low_rank:
        a = rng.normal(size=(m, 1)) @ rng.normal(size=(1, n))
    u, s, vt = top_svd(a, r)
    assert (u.shape, s.shape, vt.shape) == ((m, r), (r,), (r, n))
    fu, fs, fvt = top_svd(a)
    assert np.array_equal(u, fu[:, :r])
    assert np.array_equal(s, fs[:r])
    assert np.array_equal(vt, fvt[:r])
    for j in range(r):
        assert u[np.argmax(np.abs(u[:, j])), j] > 0
    assert np.all(np.diff(fs) <= 0)
    discarded = float(np.sum(fs[r:] ** 2))
    got = float(np.sum((a - _reconstruct(u, s, vt)) ** 2))
    assert got == pytest.approx(discarded, rel=1e-8, abs=1e-12)
    # projecting on any other r directions leaves at least as much behind
    if r:
        q, _ = np.linalg.qr(rng.normal(size=(m, r)))
        other = float(np.sum((a - q @ (q.T @ a)) ** 2))
        assert got <= other + 1e-10 * max(1.0, other)


def _kernel_input(kind, m, n, scale_exp, seed):
    rng = np.random.default_rng(seed)
    q = min(m, n)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "gaussian":
        a = rng.normal(size=(m, n))
    elif kind == "low rank":
        k = int(rng.integers(1, q + 1))
        a = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    else:
        # Known spectrum: "tied" repeats values (zero included), "graded"
        # falls geometrically by up to four decades a step.
        if kind == "tied":
            s = np.sort(rng.choice([2.0, 1.0, 1.0, 0.5, 0.0], size=q))[::-1]
        else:
            s = 10.0 ** (-rng.uniform(0.0, 4.0) * np.arange(q))
        u, _ = np.linalg.qr(rng.normal(size=(m, q)))
        v, _ = np.linalg.qr(rng.normal(size=(n, q)))
        a = (u * s) @ v.T
    return a * 10.0 ** scale_exp


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["gaussian", "low rank", "tied", "graded", "zero"]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=0, max_value=2**31 - 1),
)
# s_5 = 5e-10 s_0: the Gram cannot resolve it (without the exact fallback
# the kernel's s_5 is off by 2e-10 s_0).
@example("graded", 8, 12, 5, 85, 31823245)
def test_top_factors_matches_top_svd(kind, m, n, r, scale_exp, seed):
    # The Gram-plus-Rayleigh-Ritz kernel against the exact SVD on tall, wide
    # and square inputs, rank-deficient, tied and all-zero ones, at scales
    # from 1e-300 to 1e300: same sign rule, orthonormal factors, singular
    # values and rank-r residual within 1e-12 s_0, and the same subspaces
    # wherever the gap s_r - s_(r+1) exceeds 1e-6 s_0, up to 1e-11 s_0 / gap
    # (the Gram's rounding bound eps s_0^2 / (s_r gap), with s_r > 1e-4 s_0).
    r = min(r, m, n)
    a = _kernel_input(kind, m, n, scale_exp, seed)
    u, s, vt = top_factors(a, r)
    assert (u.shape, s.shape, vt.shape) == ((m, r), (r,), (r, n))
    for j in range(r):
        assert u[np.argmax(np.abs(u[:, j])), j] > 0
    assert u.T @ u == pytest.approx(np.eye(r), abs=1e-12)
    assert vt @ vt.T == pytest.approx(np.eye(r), abs=1e-12)
    _, full, _ = top_svd(a)
    s0 = full[0] if full[0] > 0.0 else 1.0
    eu, es, evt = top_svd(a, r)
    assert s / s0 == pytest.approx(es / s0, rel=0, abs=1e-12)
    resid = float(np.sum((a / s0 - _reconstruct(u, s / s0, vt)) ** 2))
    assert resid == pytest.approx(float(np.sum((full[r:] / s0) ** 2)), rel=0, abs=1e-12)
    if 0 < r < min(m, n) and full[r - 1] - full[r] > 1e-6 * s0:
        assert np.abs(u @ u.T - eu @ eu.T).max() <= 1e-11 * s0 / (full[r - 1] - full[r])
        assert np.abs(vt.T @ vt - evt.T @ evt).max() <= 1e-11 * s0 / (full[r - 1] - full[r])
    if r == 0 or r == min(m, n) or not a.any():
        assert np.array_equal(u, eu) and np.array_equal(s, es) and np.array_equal(vt, evt)


def test_row_space_basis_shapes():
    # The kept right singular vectors are the row-space basis.
    s = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    _, sv, vt = top_svd(s)
    b = vt[rank_mask(sv)].T
    assert b.shape == (3, 2)
    assert b.T @ b == pytest.approx(np.eye(2), abs=1e-12)


def test_rank_mask_rule():
    assert rank_mask(np.array([2.0, 1.0, 1e-11])).tolist() == [True, True, False]
    assert rank_mask(np.zeros(3)).tolist() == [False, False, False]
    assert rank_mask(np.zeros(0)).shape == (0,)


def test_regress_on_rows_solves_normal_equations():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(3, 12))
    y = rng.normal(size=12)
    theta = regress_on_rows(z, y)
    assert theta == pytest.approx(np.linalg.lstsq(z.T, y, rcond=None)[0], rel=1e-10)
    assert regress_on_rows(np.zeros((0, 12)), y).shape == (0,)
