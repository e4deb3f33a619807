"""Ground-truth data generator for benchmarking the decomposition.

Construction, given ranks and signal weights:

1. Draft joint loadings per block and the joint outcome coefficients from
   Uniform(0.5, 1), zero the coefficient entries beyond the predictive
   fraction, then orthonormalize the stacked draft [U_1; ...; U_k; theta1]
   by QR. Joint scores are the weight times standard-normal draws.
2. Per block, the same recipe for [W_i; theta2_i]; individual score draws
   are projected onto the orthogonal complement of the joint score rows so
   the two structures cannot be confused.
3. Add Gaussian noise scaled so the noise share of each block's (and the
   outcome's) total variance hits x_err (y_err).
4. Scale every variable row of X, and y, to sample variance 1, then rescale
   each stacked loading block to unit Frobenius norm with the scores
   absorbing the factor.

All randomness comes from named substreams spawned off one seed, so equal
seeds give bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Ranks
from .data import MultiSourceDataset, Outcome
from .errors import ConfigError, DegeneracyError, RankError
from .linalg import proj_complement_rows, qr_orthonormalize, unit_frame


@dataclass
class SimConfig:
    """Generator parameters; noise fractions are shares of total variance."""

    k: int
    p: tuple[int, ...]
    n: int
    rank_joint: int
    rank_indiv: tuple[int, ...]
    w_joint: float = 1.0
    w_indiv: float = 1.0
    x_err: float = 0.0
    y_err: float = 0.0
    r_prop: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.p = tuple(int(v) for v in self.p)
        self.rank_indiv = tuple(int(v) for v in self.rank_indiv)
        if self.k < 1 or len(self.p) != self.k or len(self.rank_indiv) != self.k:
            raise ConfigError("need one block size and one individual rank per block")
        if self.n < 2 or any(pi < 1 for pi in self.p):
            raise ConfigError("need n >= 2 samples and at least one variable per block")
        if not (0.0 <= self.x_err < 1.0 and 0.0 <= self.y_err < 1.0):
            raise ConfigError("noise fractions must lie in [0, 1)")
        if not 0.0 < self.r_prop <= 1.0:
            raise ConfigError("r_prop must lie in (0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:
            Ranks(self.rank_joint, self.rank_indiv).validate_for(self.p, self.n)
        except RankError as exc:
            raise ConfigError(str(exc)) from None
        n_pred = self._n_predictive(self.rank_joint) + sum(
            self._n_predictive(r) for r in self.rank_indiv
        )
        if n_pred == 0 and self.y_err < 1.0:
            raise ConfigError(
                "no predictive ranks (all ranks zero); the outcome would be pure "
                "noise, which contradicts y_err < 1"
            )

    def _n_predictive(self, r: int) -> int:
        return math.ceil(self.r_prop * r) if r > 0 else 0


@dataclass
class SimTruth:
    """Generated factors and noise, on the scale of the returned data."""

    joint_loadings: list[np.ndarray]
    joint_scores: np.ndarray
    indiv_loadings: list[np.ndarray]
    indiv_scores: list[np.ndarray]
    theta_joint: np.ndarray
    theta_indiv: list[np.ndarray]
    noise_blocks: list[np.ndarray]
    noise_outcome: np.ndarray
    # Orthonormal stacked frames as produced by the QR step, before any
    # variance scaling; kept for invariant checks.
    ortho_joint_frame: np.ndarray = field(repr=False, default=None)
    ortho_indiv_frames: list[np.ndarray] = field(repr=False, default=None)

    @property
    def joint_structure(self) -> list[np.ndarray]:
        return [u @ self.joint_scores for u in self.joint_loadings]

    @property
    def indiv_structure(self) -> list[np.ndarray]:
        return [w @ s for w, s in zip(self.indiv_loadings, self.indiv_scores)]

    @property
    def outcome_joint(self) -> np.ndarray:
        return self.theta_joint @ self.joint_scores

    @property
    def outcome_indiv(self) -> np.ndarray:
        parts = (t @ s for t, s in zip(self.theta_indiv, self.indiv_scores))
        return sum(parts, np.zeros(self.joint_scores.shape[1]))

    def stacked_joint(self) -> np.ndarray:
        return np.vstack(self.joint_structure)


def _draft_frame(rng, rows: int, rank: int, n_pred: int):
    """Uniform(0.5, 1) loading draft stacked over a coefficient row whose
    entries beyond n_pred are zero, orthonormalized by QR."""
    loadings = rng.uniform(0.5, 1.0, size=(rows, rank))
    theta = np.zeros(rank)
    theta[:n_pred] = rng.uniform(0.5, 1.0, size=n_pred)
    return qr_orthonormalize(np.vstack([loadings, theta[None, :]]))


def _noise_sigmas(signal: np.ndarray, err: float) -> np.ndarray:
    """Per-row noise std devs giving every variable (and hence the whole
    block) an ``err`` share of noise in its total variance. Keeping the
    share constant across rows means the final per-variable scaling leaves
    the noise homoscedastic."""
    rows = signal.shape[0]
    if err == 0.0:
        return np.zeros(rows)
    v_rows = np.var(signal, axis=1, ddof=1)
    return np.sqrt(v_rows * err / (1.0 - err))


def generate(cfg: SimConfig):
    """Draw one dataset; returns (data, outcome, truth).

    The returned blocks have per-variable sample variance 1 and the outcome
    has variance 1, so they can be fitted directly; means are near but not
    exactly zero. The truth decomposes the returned data exactly:
    X_i = U_i S_J + W_i S_i + E_i and y = theta1 S_J + sum theta2_i S_i + E_y.
    """
    seq = np.random.SeedSequence(cfg.seed)
    streams = seq.spawn(3 * cfg.k + 3)
    rng_joint_frame = np.random.default_rng(streams[0])
    rng_joint_scores = np.random.default_rng(streams[1])
    rng_y_noise = np.random.default_rng(streams[2])
    rng_block_frame = [np.random.default_rng(streams[3 + i]) for i in range(cfg.k)]
    rng_block_scores = [np.random.default_rng(streams[3 + cfg.k + i]) for i in range(cfg.k)]
    rng_block_noise = [np.random.default_rng(streams[3 + 2 * cfg.k + i]) for i in range(cfg.k)]

    r_j = cfg.rank_joint
    n = cfg.n
    if r_j > 0:
        # One draw of all blocks' loading rows, in block order.
        joint_frame = _draft_frame(rng_joint_frame, sum(cfg.p), r_j, cfg._n_predictive(r_j))
        U = [u.copy() for u in np.split(joint_frame[:-1], np.cumsum(cfg.p)[:-1])]
        theta1 = joint_frame[-1].copy()
        S_J = cfg.w_joint * rng_joint_scores.standard_normal((r_j, n))
        complement = proj_complement_rows(S_J)
    else:
        joint_frame = np.zeros((sum(cfg.p) + 1, 0))
        U = [np.zeros((pi, 0)) for pi in cfg.p]
        theta1 = np.zeros(0)
        S_J = np.zeros((0, n))
        complement = np.eye(n)

    W, theta2, S_i, indiv_frames = [], [], [], []
    for i in range(cfg.k):
        r_i = cfg.rank_indiv[i]
        if r_i == 0:
            W.append(np.zeros((cfg.p[i], 0)))
            theta2.append(np.zeros(0))
            S_i.append(np.zeros((0, n)))
            indiv_frames.append(np.zeros((cfg.p[i] + 1, 0)))
            continue
        frame = _draft_frame(
            rng_block_frame[i], cfg.p[i], r_i, cfg._n_predictive(r_i)
        )
        indiv_frames.append(frame)
        W.append(frame[:-1].copy())
        theta2.append(frame[-1].copy())
        draws = cfg.w_indiv * rng_block_scores[i].standard_normal((r_i, n))
        S_i.append(draws @ complement)

    blocks, noise = [], []
    for i in range(cfg.k):
        signal = U[i] @ S_J + W[i] @ S_i[i]
        sigmas = _noise_sigmas(signal, cfg.x_err)
        E = sigmas[:, None] * rng_block_noise[i].standard_normal(signal.shape)
        noise.append(E)
        blocks.append(signal + E)
    y_signal = theta1 @ S_J
    for i in range(cfg.k):
        y_signal = y_signal + theta2[i] @ S_i[i]
    sigma_y = float(_noise_sigmas(y_signal[None, :], cfg.y_err)[0])
    E_y = sigma_y * rng_y_noise.standard_normal(n)
    y = y_signal + E_y

    # Per-variable scaling of X to variance 1; loadings and noise rows take
    # the same factor so the decomposition identity is preserved.
    for i in range(cfg.k):
        sds = blocks[i].std(axis=1, ddof=1)
        if np.any(sds <= 0.0):
            raise DegeneracyError(
                f"block {i + 1} produced a zero-variance variable; check the "
                "rank/noise configuration"
            )
        blocks[i] = blocks[i] / sds[:, None]
        noise[i] = noise[i] / sds[:, None]
        U[i] = U[i] / sds[:, None]
        W[i] = W[i] / sds[:, None]
    sd_y = float(np.std(y, ddof=1))
    if sd_y <= 0.0:
        raise DegeneracyError("outcome has zero variance; check the configuration")
    y = y / sd_y
    E_y = E_y / sd_y
    theta1 = theta1 / sd_y
    theta2 = [t / sd_y for t in theta2]

    # Unit Frobenius norm of each stacked loading block, scores absorbing.
    # The QR frames have no zero columns, so no frame is all zero here.
    if r_j > 0:
        U, S_J, theta1 = unit_frame(U, S_J, theta1)
    for i in range(cfg.k):
        if cfg.rank_indiv[i] > 0:
            (W[i],), S_i[i], theta2[i] = unit_frame([W[i]], S_i[i], theta2[i])

    truth = SimTruth(
        joint_loadings=U,
        joint_scores=S_J,
        indiv_loadings=W,
        indiv_scores=S_i,
        theta_joint=theta1,
        theta_indiv=theta2,
        noise_blocks=noise,
        noise_outcome=E_y,
        ortho_joint_frame=joint_frame,
        ortho_indiv_frames=indiv_frames,
    )
    data = MultiSourceDataset.from_arrays(blocks)
    outcome = Outcome(y)
    return data, outcome, truth


def eigen_signal_report(truth: SimTruth, data: MultiSourceDataset | None = None):
    """Strongest signal-component singular value versus the strongest
    per-block noise singular value.

    The signal value is the largest top singular value over the stacked
    joint structure and each individual structure. Once it drops below the
    noise value, rank-revealing methods start absorbing noise directions
    instead of signal.
    """
    indiv = truth.indiv_structure
    if data is not None:
        recon = truth.stacked_joint() + np.vstack(indiv) + np.vstack(truth.noise_blocks)
        if not np.allclose(recon, np.vstack(data.blocks), atol=1e-8):
            raise DegeneracyError("truth does not reproduce the supplied data")

    def top_sv(mats) -> float:
        return max((float(np.linalg.svd(m, compute_uv=False)[0])
                    for m in mats if m.size and np.any(m)), default=0.0)

    signal_sv = top_sv([truth.stacked_joint(), *indiv])
    noise_sv = top_sv(truth.noise_blocks)
    return signal_sv, noise_sv


def train_test_split(data: MultiSourceDataset, y: Outcome, n_train: int):
    """Deterministic column split: first n_train samples train, rest test."""
    if not 1 <= n_train < data.n:
        raise ConfigError(f"n_train must be in 1..{data.n - 1}, got {n_train}")
    idx_train = np.arange(n_train)
    idx_test = np.arange(n_train, data.n)
    return (
        data.subset_samples(idx_train),
        Outcome(y.values[idx_train], standardization=y.standardization),
        data.subset_samples(idx_test),
        Outcome(y.values[idx_test], standardization=y.standardization),
    )
