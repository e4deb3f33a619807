"""Multi-source data handling: CSV ingestion, standardization, SVD compression.

A dataset is a list of blocks, each variables x samples, sharing the same
sample ordering. Standardization is per variable (mean 0, variance 1 with
the n-1 denominator) and keeps the moments so transforms can be inverted or
re-applied to new data.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegeneracyError, InputError, ParseError, ShapeError
from .linalg import as_matrix, top_svd

# Variables whose sample sd falls at or below this (relative) floor count
# as constant.
_SD_FLOOR = 1e-12


@dataclass
class LabeledMatrix:
    """A numeric table with row and column identifiers."""

    values: np.ndarray
    row_ids: list[str]
    col_ids: list[str]


def load_csv(path, samples_in_rows: bool = False) -> LabeledMatrix:
    """Read a CSV table into a variables x samples matrix.

    Expected layout: header ``id,<sample ids...>`` and one row per variable.
    With ``samples_in_rows=True`` the file holds samples as rows and the
    result is transposed. Ragged rows, non-numeric or non-finite cells,
    duplicate identifiers and a file that is not UTF-8 text raise ParseError
    naming the offending location.

    The header is split by ``csv.reader``; the body is converted in one
    ``np.loadtxt`` call, which reads each number as ``float`` does but
    rejects ``1_000`` and non-ASCII digits. Only a file it rejects is
    scanned again, to name the first bad row or cell.
    """
    try:
        # Universal newlines parse ~8% faster than newline=""; a quoted "\r\n" reads "\n".
        with open(path, encoding="utf-8") as fh:
            header = next((row for row in csv.reader(fh) if row), [])
            dtype = [("id", object), ("values", float, (len(header) - 1,))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt's empty-input warning
                try:
                    table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                       comments=None, ndmin=1) if len(header) > 1 else None
                except ValueError:  # a bad cell or row, or undecodable text
                    table = None
        if table is None or not table.size or not np.isfinite(table["values"]).all():
            raise _first_error(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    row_ids = [i.strip() for i in table["id"]]
    col_ids = [c.strip() for c in header[1:]]
    for name, ids in (("row", row_ids), ("column", col_ids)):
        seen = set()
        for i in ids:
            if i in seen:
                raise ParseError(f"{path}: duplicate {name} id '{i}'")
            seen.add(i)
    values = table["values"]  # a strided view into the records, copied once below
    if samples_in_rows:
        values, row_ids, col_ids = values.T, col_ids, row_ids
    return LabeledMatrix(np.ascontiguousarray(values), row_ids=row_ids, col_ids=col_ids)


def _first_error(path) -> ParseError:
    """The ParseError for the first bad row or cell, found by rereading the
    file with ``csv.reader``. A cell is a number if, stripped, it is ASCII
    without ``_`` and ``float`` reads it: what ``np.loadtxt`` accepts."""
    with open(path, encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if row)
        header, first = next(rows, None), next(rows, None)
        if first is None:
            return ParseError(f"{path}: expected a header row and at least one data row")
        if len(header) < 2:
            return ParseError(f"{path}: header must contain at least one sample id")
        col_ids = [c.strip() for c in header[1:]]
        for r, row in enumerate(itertools.chain([first], rows), start=2):
            rid = row[0].strip()
            if len(row) != len(header):
                return ParseError(f"{path}: row {r} ('{rid}') has {len(row) - 1} values, "
                                  f"expected {len(col_ids)}")
            for cell, col in zip(row[1:], col_ids):
                cell, kind = cell.strip(), "non-numeric"
                if cell.isascii() and "_" not in cell:
                    try:
                        kind = None if np.isfinite(float(cell)) else "non-finite"
                    except ValueError:
                        pass
                if kind:
                    return ParseError(f"{path}: {kind} value {cell!r} at row '{rid}', "
                                      f"column '{col}'")
    return ParseError(f"{path}: not a readable table")


def write_csv(path, values, row_ids, col_ids, corner: str = "id") -> None:
    """Write a matrix in the same layout load_csv reads."""
    arr = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([corner, *col_ids])
        for rid, row in zip(row_ids, arr):
            writer.writerow([rid, *(repr(float(v)) for v in row)])


@dataclass
class BlockScaler:
    """Per-variable moments of one block plus any dropped constant variables."""

    means: np.ndarray
    sds: np.ndarray
    dropped_ids: list[str] = field(default_factory=list)
    dropped_idx: list[int] = field(default_factory=list)


@dataclass
class OutcomeScaler:
    mean: float
    sd: float


@dataclass
class Outcome:
    """Length-n response vector with optional standardization metadata."""

    values: np.ndarray
    standardization: OutcomeScaler | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size < 1:
            raise ShapeError("outcome must contain at least one value")
        if not np.isfinite(self.values).all():
            raise InputError("outcome contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass
class MultiSourceDataset:
    """k stacked blocks (each p_i x n) sharing sample order."""

    blocks: list[np.ndarray]
    sample_ids: list[str]
    variable_ids: list[list[str]]
    standardization: list[BlockScaler] | None = None

    def __post_init__(self):
        if not self.blocks:
            raise ShapeError("dataset needs at least one block")
        self.blocks = [as_matrix(b, f"block {i + 1}") for i, b in enumerate(self.blocks)]
        n = self.blocks[0].shape[1]
        for i, b in enumerate(self.blocks):
            if b.shape[1] != n:
                raise ShapeError(
                    f"block {i + 1} has {b.shape[1]} samples, expected {n}"
                )
        if len(self.sample_ids) != n:
            raise ShapeError(f"{len(self.sample_ids)} sample ids for {n} samples")
        if len(self.variable_ids) != len(self.blocks):
            raise ShapeError("one variable-id list required per block")
        for i, (b, ids) in enumerate(zip(self.blocks, self.variable_ids)):
            if len(ids) != b.shape[0]:
                raise ShapeError(
                    f"block {i + 1}: {len(ids)} variable ids for {b.shape[0]} variables"
                )

    @classmethod
    def from_arrays(cls, blocks, sample_ids=None, variable_ids=None) -> "MultiSourceDataset":
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        n = blocks[0].shape[1]
        if sample_ids is None:
            sample_ids = [f"s{j + 1}" for j in range(n)]
        if variable_ids is None:
            variable_ids = [
                [f"b{i + 1}_v{r + 1}" for r in range(b.shape[0])]
                for i, b in enumerate(blocks)
            ]
        return cls(blocks=blocks, sample_ids=list(sample_ids), variable_ids=variable_ids)

    @classmethod
    def from_labeled(cls, mats: list[LabeledMatrix]) -> "MultiSourceDataset":
        """Assemble blocks loaded from CSV, checking shared sample ordering."""
        ref = mats[0].col_ids
        for i, m in enumerate(mats[1:], start=2):
            if m.col_ids != ref:
                raise ShapeError(
                    f"block {i} sample ids do not match block 1 "
                    f"(same samples in the same order are required)"
                )
        return cls(
            blocks=[m.values for m in mats],
            sample_ids=list(ref),
            variable_ids=[list(m.row_ids) for m in mats],
        )

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.blocks[0].shape[1]

    @property
    def p(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def stacked(self) -> np.ndarray:
        return np.vstack(self.blocks)

    def subset_samples(self, idx) -> "MultiSourceDataset":
        """Column subset in the given index order (standardization dropped)."""
        idx = np.asarray(idx, dtype=int)
        return MultiSourceDataset(
            blocks=[b[:, idx].copy() for b in self.blocks],
            sample_ids=[self.sample_ids[j] for j in idx],
            variable_ids=[list(v) for v in self.variable_ids],
        )


def _row_moments(block: np.ndarray):
    means = block.mean(axis=1)
    sds = block.std(axis=1, ddof=1) if block.shape[1] > 1 else np.zeros(block.shape[0])
    return means, sds


def standardize(
    data: MultiSourceDataset,
    y: Outcome | None = None,
    policy: str = "error",
):
    """Center and scale every variable row (and the outcome) to mean 0, variance 1.

    ``policy`` controls zero-variance variables: "error" raises a
    DegeneracyError naming the variable, "drop" removes it and records it in
    the block's scaler. Returns (dataset, outcome) with moments attached.
    """
    if policy not in ("error", "drop"):
        raise ValueError(f"unknown zero-variance policy {policy!r}")
    scalers = []
    for i, block in enumerate(data.blocks):
        means, sds = _row_moments(block)
        const = sds <= _SD_FLOOR * (1.0 + np.abs(means))
        dropped = np.nonzero(const)[0]
        names = [data.variable_ids[i][j] for j in dropped]
        if names and policy == "error":
            raise DegeneracyError(
                f"block {i + 1}: zero-variance variable(s) {names}; "
                "drop them or rerun with the drop-constant policy"
            )
        if const.all():
            raise DegeneracyError(f"block {i + 1}: no variables left after dropping constants")
        scalers.append(BlockScaler(means=means[~const], sds=sds[~const], dropped_ids=names,
                                   dropped_idx=[int(j) for j in dropped]))
    out_data = standardize_with(data, scalers)
    if y is None:
        return out_data, None
    mean = float(np.mean(y.values))
    sd = float(np.std(y.values, ddof=1)) if y.n > 1 else 0.0
    if sd <= _SD_FLOOR * (1.0 + abs(mean)):
        raise DegeneracyError("outcome is constant; cannot standardize")
    out_y = Outcome((y.values - mean) / sd, standardization=OutcomeScaler(mean, sd))
    return out_data, out_y


def standardize_with(data: MultiSourceDataset, scalers: list[BlockScaler]) -> MultiSourceDataset:
    """Apply previously fitted per-variable moments to new data.

    New blocks may carry either the full original variable set (dropped
    variables are removed again) or already only the kept variables.
    """
    if len(scalers) != data.k:
        raise ShapeError(f"{len(scalers)} scalers for {data.k} blocks")
    new_blocks, new_ids = [], []
    for i, (block, sc) in enumerate(zip(data.blocks, scalers)):
        kept = sc.means.size
        if block.shape[0] == kept + len(sc.dropped_idx) and sc.dropped_idx:
            keep = np.setdiff1d(np.arange(block.shape[0]), np.asarray(sc.dropped_idx))
            block = block[keep]
            ids = [data.variable_ids[i][j] for j in keep]
        elif block.shape[0] == kept:
            ids = list(data.variable_ids[i])
        else:
            raise ShapeError(
                f"block {i + 1} has {block.shape[0]} variables, scaler expects "
                f"{kept} (or {kept + len(sc.dropped_idx)} before dropping)"
            )
        new_blocks.append((block - sc.means[:, None]) / sc.sds[:, None])
        new_ids.append(ids)
    return MultiSourceDataset(
        blocks=new_blocks,
        sample_ids=list(data.sample_ids),
        variable_ids=new_ids,
        standardization=[replace(sc) for sc in scalers],
    )


def standardize_outcome_with(values, scaler: OutcomeScaler) -> np.ndarray:
    return (np.asarray(values, dtype=float) - scaler.mean) / scaler.sd


def destandardize_outcome(values, scaler: OutcomeScaler | None) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if scaler is None:
        return vals
    return vals * scaler.sd + scaler.mean


@dataclass
class CompressedBlock:
    """SVD compression of one block: block = back_map @ scores.

    ``scores`` is the singular-value-weighted right factor (at most n x n),
    ``back_map`` the orthonormal left factor mapping back to variable space.
    Column geometry (distances, covariances) of the block is preserved in
    the scores.
    """

    scores: np.ndarray
    back_map: np.ndarray


def compress(block) -> CompressedBlock:
    """Replace a p x n block by its min(p, n) x n score representation."""
    u, s, vt = top_svd(as_matrix(block, "block"))
    return CompressedBlock(scores=s[:, None] * vt, back_map=u)


def decompress_loadings(cb: CompressedBlock, compressed_loadings) -> np.ndarray:
    """Map loadings estimated on compressed scores back to variable space."""
    arr = np.asarray(compressed_loadings, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != cb.back_map.shape[1]:
        raise ShapeError(
            f"compressed loadings must have {cb.back_map.shape[1]} rows, "
            f"got shape {arr.shape}"
        )
    return cb.back_map @ arr

