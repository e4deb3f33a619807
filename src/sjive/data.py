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
    result is transposed. Ragged rows, non-numeric or non-finite cells and
    duplicate identifiers raise ParseError naming the offending location.

    A plain table (no quotes, every value finite and in the form numpy's C
    parser reads) is converted in one ``np.loadtxt`` call; any other file
    goes through the streamed reader, which gives the same values for
    everything both accept and names the bad cell when a file is invalid.
    """
    values, row_ids, col_ids = _load_plain(path) or _load_streamed(path)
    for name, ids in (("row", row_ids), ("column", col_ids)):
        seen = set()
        for i in ids:
            if i in seen:
                raise ParseError(f"{path}: duplicate {name} id '{i}'")
            seen.add(i)
    if samples_in_rows:
        return LabeledMatrix(values.T.copy(), row_ids=col_ids, col_ids=row_ids)
    return LabeledMatrix(values, row_ids=row_ids, col_ids=col_ids)


def _load_plain(path):
    """(values, row ids, column ids) of a plain table, or None to leave the
    file to the streamed reader.

    The file declines on a quote, a NUL (csv.reader refuses it before
    Python 3.11), a non-empty line without a comma, a field longer than
    csv's field limit, no data line (loadtxt's empty-input warning), a cell
    ``np.loadtxt`` rejects, a shape other than (lines, header columns - 1)
    or a non-finite value. numpy converts each cell with the C routine
    ``float`` uses (it rejects ``1_000`` and non-ASCII digits, which then go
    to the streamed reader), so accepted values are bit-identical.
    """
    limit = csv.field_size_limit()
    header, row_ids, rests = None, [], []
    try:
        # Text mode ends lines at "\n", "\r\n" and "\r", as csv.reader does.
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue  # csv.reader yields an empty row, which is skipped
                if '"' in line or "\0" in line or (
                        len(line) > limit and max(map(len, line.split(","))) > limit):
                    return None
                rid, comma, rest = line.partition(",")
                if not comma:
                    return None
                if header is None:
                    header = next(csv.reader([line]))
                else:
                    row_ids.append(rid.strip())
                    rests.append(rest)
    except UnicodeDecodeError:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt's empty-input warning
        try:
            values = np.loadtxt(rests, delimiter=",", comments=None, dtype=float, ndmin=2)
        except (ValueError, UserWarning):
            return None
    if values.shape != (len(rests), len(header) - 1) or not np.isfinite(values).all():
        return None
    return values, row_ids, [c.strip() for c in header[1:]]


def _load_streamed(path):
    """(values, row ids, column ids) read row by row from ``csv.reader``.

    Each row's cells are converted in one call (numpy accepts exactly the
    strings ``float`` accepts); the cell-by-cell scan runs only on a row
    that fails, to name the bad cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if row)
        header = next(rows, None)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: expected a header row and at least one data row")
        if len(header) < 2:
            raise ParseError(f"{path}: header must contain at least one sample id")
        col_ids = [c.strip() for c in header[1:]]
        row_ids: list[str] = []
        data = []
        for r, row in enumerate(itertools.chain([first], rows), start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {r} ('{row[0].strip() if row else ''}') has "
                    f"{len(row) - 1} values, expected {len(col_ids)}"
                )
            rid = row[0].strip()
            try:
                vals = np.array(row[1:], dtype=float)
            except ValueError:
                vals = None
            if vals is None or not np.isfinite(vals).all():
                vals = _scan_row(path, row, rid, col_ids)
            row_ids.append(rid)
            data.append(vals)
    return np.vstack(data), row_ids, col_ids


def _scan_row(path, row, rid, col_ids) -> np.ndarray:
    """Convert one row cell by cell, raising ParseError at the first bad cell."""
    vals = np.empty(len(col_ids))
    for c, cell in enumerate(row[1:]):
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric value {cell.strip()!r} at row '{rid}', "
                f"column '{col_ids[c]}'"
            ) from None
        if not np.isfinite(v):
            raise ParseError(
                f"{path}: non-finite value {cell.strip()!r} at row '{rid}', "
                f"column '{col_ids[c]}'"
            )
        vals[c] = v
    return vals


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


def destandardize_block(block, scaler: BlockScaler) -> np.ndarray:
    return np.asarray(block, dtype=float) * scaler.sds[:, None] + scaler.means[:, None]


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

