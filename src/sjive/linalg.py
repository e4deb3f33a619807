"""Dense-matrix primitives: the signed truncated SVD, the rank-r part the
fit loop iterates on, least squares on score rows, the unit-norm gauge fix,
QR and row-space projections, plus the number of threads that may run them
side by side.

Every matrix function here is pure and deterministic, and each is the
package's only implementation of its job. ``top_svd`` is the one source of
singular vectors, with one sign convention (largest-magnitude entry of each
left vector is made positive, the paired right vector flips with it) so
repeated calls return bit-identical output. The fit loop's rank-r part
(``top_pair``, one ``eigh``) needs none; the fitted model's factors come
from one ``top_svd`` of each final part.
"""

import math
import os
import warnings

import numpy as np

from .errors import DegeneracyError, InputError, RankError, ShapeError

# Singular values below RANK_TOL * sigma_max are treated as zero.
RANK_TOL = 1e-10

# Environment variables that set the thread count of the BLAS numpy uses.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parallel_workers() -> int:
    """Python threads that can each run LAPACK calls without oversubscribing
    the CPUs: usable CPUs divided by the BLAS thread count, at least 1.

    The BLAS thread count is the largest positive value among
    ``BLAS_THREAD_VARS``; when none is set, BLAS is taken to use every CPU,
    which gives 1. On a 2-CPU machine, three model selections took 58-63 s
    on two threads over two-thread OpenBLAS against 36-39 s on one.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    settings = [int(v) for v in map(os.environ.get, BLAS_THREAD_VARS) if v and v.strip().isdigit()]
    blas = max([s for s in settings if s > 0], default=cpus)
    return max(1, cpus // blas)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite or empty input."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def top_svd(a, r: int | None = None):
    """Top-r thin SVD factors (u, s, vt) with fixed signs; r = None keeps all.

    Singular values come back in LAPACK's descending order. The largest-
    magnitude entry of each kept left vector is made positive and the paired
    right vector flips with it; negation is exact, so equal inputs give
    bit-identical factors. r = 0 returns empty factors without an SVD.
    Raises RankError when r is outside 0..min(rows, cols) and InputError on
    non-finite entries.
    """
    arr = as_matrix(a)
    rows, cols = arr.shape
    top = min(rows, cols)
    if r is not None and not 0 <= r <= top:
        raise RankError(f"rank {r} outside valid range 0..{top} for shape {arr.shape}")
    if r == 0:
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((0, cols))
    # Looked up at call time so a patched numpy.linalg.svd sees every call.
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    u, s, vt = u[:, :r], s[:r], vt[:r]
    sign = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return u * sign, s, vt * sign[:, None]


def top_pair(a: np.ndarray, r: int):
    """The rank-r part of ``a`` as the pair (a V, V): the part is
    (a V) V^T, and the r orthonormal columns of V span its row space.

    This is the fit loop's update: one ``eigh`` of the smaller Gram matrix,
    without a sign rule or input check, so ``a`` must be a finite 2-d float
    array. The entries are divided by their largest magnitude first, so
    that tiny or huge entries neither underflow nor overflow in the Gram.
    For a tall ``a``, V is the Gram's eigenvectors. For a wide one they are
    left vectors U, and V is a^T U with unit columns; those are orthogonal
    to about eps s_0^2 / (s_i s_j). The columns come in no fixed order and
    with no fixed signs, neither of which changes the part.

    Falls back to the exact ``top_svd`` when r >= min(rows, cols), when
    ``a`` is all zero, and when s_r <= 1e-4 s_0: below that the Gram's
    rounding (about eps s_0^2) blurs the subspace enough to move
    ||a v_r|| = s_r by more than 1e-12 s_0 on graded spectra. r = 0 gives
    an empty pair.
    """
    if r == 0:
        return np.zeros((a.shape[0], 0)), np.zeros((a.shape[1], 0))
    big = float(np.abs(a).max()) if r < min(a.shape) else 0.0
    if big > 0.0:
        g = (a if a.shape[0] >= a.shape[1] else a.T) / big
        # Looked up at call time, like the SVD; the eigenvalues ascend.
        evals, vecs = np.linalg.eigh(g.T @ g)
        if evals[-r] > 1e-8 * evals[-1]:
            vecs = vecs[:, -r:]
            if a.shape[0] < a.shape[1]:
                vecs = g @ vecs
                vecs /= np.sqrt(np.sum(vecs * vecs, axis=0))
            return a @ vecs, vecs
    u, s, vt = top_svd(a, r)
    return u * s, vt.T


def rank_mask(s) -> np.ndarray:
    """Singular values that count as nonzero: above RANK_TOL times the
    largest; none at all when the largest is zero."""
    if not s.size or s[0] <= 0.0:
        return np.zeros(s.shape, dtype=bool)
    return s > RANK_TOL * s[0]


def regress_on_rows(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on the rows of z, without intercept.

    Solves the normal equations; when the Gram matrix z z^T is singular it
    warns once and uses its pseudoinverse (minimum-norm coefficients).
    """
    if z.shape[0] == 0:
        return np.zeros(0)
    G = z @ z.T
    g = z @ y
    try:
        theta = np.linalg.solve(G, g)
        if not np.isfinite(theta).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        warnings.warn(
            "score Gram matrix is singular; using a pseudoinverse",
            RuntimeWarning,
            stacklevel=3,
        )
        theta = np.linalg.pinv(G, rcond=RANK_TOL) @ g
    return theta


def unit_frame(loadings: list, scores: np.ndarray, theta=None, theta_in_norm: bool = True):
    """Rescale the stacked frame [loadings_1; ...; loadings_k; theta] to unit
    Frobenius norm, the scores absorbing the factor so every product
    loadings_i @ scores and theta @ scores is unchanged.

    With ``theta_in_norm=False`` theta is divided by the same factor but
    left out of the norm. Returns (loadings, scores, theta), or None when
    the frame is all zero.
    """
    parts = [*loadings, theta] if theta is not None and theta_in_norm else loadings
    with np.errstate(over="ignore"):  # an infinite sum is handled below
        nsq = sum(float(np.sum(u * u)) for u in parts)
    if nsq == 0.0:
        return None
    c = math.sqrt(nsq)
    if math.isinf(c):  # squares overflow (loadings near 1e154): scale them first
        big = max(float(np.abs(u).max(initial=0.0)) for u in parts)
        c = big * math.sqrt(sum(float(np.sum((u / big) ** 2)) for u in parts))
    return [u / c for u in loadings], scores * c, None if theta is None else theta / c


def qr_orthonormalize(a) -> np.ndarray:
    """Orthonormal basis of the column space of a full-column-rank matrix.

    Signs are fixed so the triangular factor has a positive diagonal.
    Raises DegeneracyError when the columns are linearly dependent.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    if n > m:
        raise ShapeError(f"need cols <= rows, got shape {arr.shape}")
    q, r = np.linalg.qr(arr)
    diag = np.diag(r)
    scale = np.max(np.abs(diag)) if diag.size else 0.0
    if scale == 0.0 or np.any(np.abs(diag) <= RANK_TOL * scale):
        raise DegeneracyError("input is rank-deficient; columns are linearly dependent")
    return q * np.sign(diag)[None, :]


def proj_complement_rows(s) -> np.ndarray:
    """Projector onto the orthogonal complement of the row space of s.

    Returns the n x n symmetric idempotent matrix I - s^T (s s^T)^+ s; the
    pseudoinverse handles rank-deficient s, so a zero matrix maps to I.
    """
    arr = as_matrix(s)
    r, n = arr.shape
    if r > n:
        raise ShapeError(f"need r <= n for an r x n score matrix, got {arr.shape}")
    _, sv, vt = top_svd(arr)
    basis = vt[rank_mask(sv)].T
    return np.eye(n) - basis @ basis.T
