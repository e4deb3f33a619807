"""Seeded inputs for the benchmark workloads, built with numpy alone.

A problem is a latent-factor model with one joint component shared by every
block and one individual component per block:

    X_i = a_i + c_i * (u_i s_J + w_i s_i + e_i),    y = b + d * (t_J s_J + sum_i t_i s_i + e_y)

with per-variable offsets a_i and scales c_i, so standardization has real
work to do. The individual scores are orthogonal to the joint scores over
the whole sample. The outcome noise e_y is kept, because it sets the floor
that held-out prediction error is checked against.

``cv-select`` and ``tall-cli`` run fixed base problems. Their ``--seed``
permutes samples and variables, so the files and arrays differ from seed to
seed while the rank path and iteration counts, and hence the work, stay the
same. Rank selection on a fresh draw took anywhere from 0.2 s to 37 s, so
run-to-run spread would otherwise measure the draw, not the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Outcome weights of the joint and the two individual components.
OUTCOME_WEIGHTS = (1.0, 0.7, 0.5)
# CSV values are multiples of 2**-10, so "%.10f" writes them exactly and the
# benchmark knows the parsed values without reading its own files back.
CSV_QUANTUM = 2.0 ** -10


@dataclass
class Problem:
    """Raw blocks (variables x samples), outcome and true outcome noise."""

    blocks: list[np.ndarray]
    y: np.ndarray
    noise_y: np.ndarray
    sample_ids: list[str]
    variable_ids: list[list[str]]

    @property
    def n(self) -> int:
        return self.y.size

    def columns(self, idx) -> "Problem":
        idx = np.asarray(idx, dtype=int)
        return Problem(
            blocks=[b[:, idx] for b in self.blocks],
            y=self.y[idx],
            noise_y=self.noise_y[idx],
            sample_ids=[self.sample_ids[j] for j in idx],
            variable_ids=[list(v) for v in self.variable_ids],
        )

    def rows(self, perms) -> "Problem":
        return Problem(
            blocks=[b[perm] for b, perm in zip(self.blocks, perms)],
            y=self.y,
            noise_y=self.noise_y,
            sample_ids=list(self.sample_ids),
            variable_ids=[[ids[r] for r in perm] for ids, perm in zip(self.variable_ids, perms)],
        )


def latent_problem(seed: int, p: tuple[int, ...], n: int, x_err: float, y_err: float,
                   quantum: float | None = None) -> Problem:
    """Draw one problem; ``x_err``/``y_err`` are the noise shares of variance."""
    rng = np.random.default_rng(seed)
    k = len(p)
    s_joint = rng.standard_normal(n)
    s_ind = []
    for _ in range(k):
        s = rng.standard_normal(n)
        s_ind.append(s - (s @ s_joint) / (s_joint @ s_joint) * s_joint)
    blocks = []
    for pi, s in zip(p, s_ind):
        # Positive loadings, as in the paper's simulation design, make the
        # joint and individual directions of a block strongly correlated.
        u = rng.uniform(0.5, 1.0, pi)
        w = rng.uniform(0.5, 1.0, pi)
        sigma_x = np.sqrt(np.mean(u * u + w * w) * x_err / (1.0 - x_err))
        latent = np.outer(u, s_joint) + np.outer(w, s) + sigma_x * rng.standard_normal((pi, n))
        offsets = rng.uniform(-5.0, 5.0, pi)
        scales = rng.uniform(0.5, 3.0, pi)
        blocks.append(offsets[:, None] + scales[:, None] * latent)
    weights = OUTCOME_WEIGHTS[: k + 1]
    signal = weights[0] * s_joint + sum(t * s for t, s in zip(weights[1:], s_ind))
    sigma_y = np.sqrt(y_err / (1.0 - y_err) * np.var(signal))
    noise_y = 2.0 * sigma_y * rng.standard_normal(n)
    y = 10.0 + 2.0 * signal + noise_y
    if quantum is not None:
        blocks = [np.round(b / quantum) * quantum for b in blocks]
        y_q = np.round(y / quantum) * quantum
        noise_y = noise_y + (y_q - y)
        y = y_q
    return Problem(
        blocks=blocks,
        y=y,
        noise_y=noise_y,
        sample_ids=[f"s{j + 1}" for j in range(n)],
        variable_ids=[[f"b{i + 1}_v{r + 1}" for r in range(pi)] for i, pi in enumerate(p)],
    )


def shuffled(problem: Problem, seed) -> tuple[Problem, np.ndarray]:
    """Permute samples and variables; returns the problem and the sample
    permutation (new position j holds original sample perm[j])."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(problem.n)
    row_perms = [rng.permutation(b.shape[0]) for b in problem.blocks]
    return problem.columns(perm).rows(row_perms), perm


def base_folds(n: int, seed: int, n_folds: int = 5) -> list[np.ndarray]:
    """Contiguous chunks of a seeded shuffle, in base-problem coordinates."""
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_folds)]


def map_folds(folds, perm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Fold index sets after the samples were reordered by ``perm``."""
    where = np.empty_like(perm)
    where[perm] = np.arange(perm.size)
    return tuple(np.sort(where[f]) for f in folds)


def write_csv(path, values: np.ndarray, row_ids, col_ids) -> None:
    """Write a matrix in the package's CSV layout; values must be multiples
    of CSV_QUANTUM below 1e6 in magnitude, which "%.10f" writes exactly."""
    fmt = "%s," + ",".join(["%.10f"] * values.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(col_ids) + "\n")
        for rid, row in zip(row_ids, values.tolist()):
            fh.write(fmt % (rid, *row))
            fh.write("\n")
