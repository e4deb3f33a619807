"""Model and truth serialization: an npz archive of arrays plus a JSON manifest.

``np.savez`` stores every array as an ``.npy`` member of a zip file with its
exact float64 bits, so a saved model reproduces its predictions
bit-identically after loading. The member ``manifest`` is a 0-d string
array holding JSON: format version, kind, block count and the scalar or
text metadata (weight, ranks, ids, dropped variables, outcome moments, fit
report counters). Archives are read with ``allow_pickle=False``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict

import numpy as np

from .core import FitReport, Ranks, SJiveModel
from .data import BlockScaler, OutcomeScaler
from .errors import ParseError
from .simulate import SimTruth

FORMAT_VERSION = 2

# Older truth archives also hold the structure and outcome products; unread.
_TRUTH_PER_BLOCK = ("joint_loadings", "indiv_loadings", "indiv_scores", "theta_indiv",
                    "noise_blocks")
_TRUTH_SINGLE = ("joint_scores", "theta_joint", "noise_outcome")


def _save(path, kind: str, arrays: dict, manifest: dict) -> None:
    manifest = {"format_version": FORMAT_VERSION, "kind": kind, **manifest}
    # Through an open file the archive keeps exactly the given name (a str
    # path would get ".npz" appended).
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)


def _load(path, kind: str):
    """(manifest, arrays) of an archive of the given kind."""
    try:
        npz = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ParseError(f"{path} is not a {kind} archive") from None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise ParseError(f"{path} is not a {kind} archive")
    with npz:
        if "manifest.json" in npz.files:
            raise ParseError(
                f"{path} is a format version 1 (CSV) archive, which is no longer read; "
                f"refit the model (or rerun simulate) to write format version {FORMAT_VERSION}"
            )
        if "manifest" not in npz.files:
            raise ParseError(f"{path} is not a {kind} archive")
        manifest = json.loads(str(npz["manifest"]))
        if manifest.get("kind") != kind:
            raise ParseError(f"{path} is not a {kind} archive")
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ParseError(
                f"{path} has format version {manifest.get('format_version')}; "
                f"this version reads format version {FORMAT_VERSION}"
            )
        arrays = {name: npz[name] for name in npz.files if name != "manifest"}
    return manifest, arrays


def _per_block(arrays: dict, name: str, k: int) -> list[np.ndarray]:
    return [arrays[f"{name}_{i + 1}"] for i in range(k)]


def save_model(model: SJiveModel, path, report: FitReport | None = None) -> None:
    """Write a fitted model (and optionally its fit report) to ``path``."""
    per_block = {
        "joint_loadings": model.joint_loadings,
        "indiv_loadings": model.indiv_loadings,
        "indiv_scores": model.indiv_scores,
    }
    arrays = {"joint_scores": model.joint_scores}
    if model.theta_joint is not None:
        arrays["theta_joint"] = model.theta_joint
        per_block["theta_indiv"] = model.theta_indiv
    dropped = None
    if model.block_scalers is not None:
        per_block["block_means"] = [sc.means for sc in model.block_scalers]
        per_block["block_sds"] = [sc.sds for sc in model.block_scalers]
        dropped = [{"ids": list(sc.dropped_ids), "idx": list(sc.dropped_idx)}
                   for sc in model.block_scalers]
    for name, items in per_block.items():
        arrays.update({f"{name}_{i + 1}": a for i, a in enumerate(items)})
    outcome = None if model.outcome_scaler is None else asdict(model.outcome_scaler)
    manifest = {
        "k": model.k,
        "eta": float(model.eta),
        "ranks": {"joint": model.ranks.joint, "individual": list(model.ranks.individual)},
        "degenerate": list(model.degenerate),
        "variable_ids": model.variable_ids,
        "sample_ids": model.sample_ids,
        "dropped": dropped,
        "outcome_scaler": outcome,
    }
    if report is not None:
        arrays["objective_trace"] = np.asarray(report.objective_trace, dtype=float)
        manifest["report"] = {
            "iterations": int(report.iterations),
            "converged": bool(report.converged),
            "final_objective": float(report.final_objective),
        }
    _save(path, "model", arrays, manifest)


def load_model(path):
    """Read back a model archive; returns (model, report or None)."""
    manifest, arrays = _load(path, "model")
    k = manifest["k"]
    block_scalers = None
    if manifest["dropped"] is not None:
        block_scalers = [
            BlockScaler(means=m, sds=s, dropped_ids=d["ids"], dropped_idx=d["idx"])
            for m, s, d in zip(_per_block(arrays, "block_means", k),
                               _per_block(arrays, "block_sds", k), manifest["dropped"])
        ]
    outcome = manifest["outcome_scaler"]
    has_theta = "theta_joint" in arrays
    model = SJiveModel(
        joint_loadings=_per_block(arrays, "joint_loadings", k),
        joint_scores=arrays["joint_scores"],
        indiv_loadings=_per_block(arrays, "indiv_loadings", k),
        indiv_scores=_per_block(arrays, "indiv_scores", k),
        theta_joint=arrays["theta_joint"] if has_theta else None,
        theta_indiv=_per_block(arrays, "theta_indiv", k) if has_theta else None,
        eta=manifest["eta"],
        ranks=Ranks(manifest["ranks"]["joint"], tuple(manifest["ranks"]["individual"])),
        block_scalers=block_scalers,
        outcome_scaler=None if outcome is None else OutcomeScaler(**outcome),
        variable_ids=manifest["variable_ids"],
        sample_ids=manifest.get("sample_ids"),
        degenerate=tuple(manifest["degenerate"]),
    )
    report = None
    if "report" in manifest:
        report = FitReport(objective_trace=arrays["objective_trace"].tolist(), **manifest["report"])
    return model, report


def save_truth(truth: SimTruth, path) -> None:
    """Write generator ground truth to an archive."""
    arrays = {name: getattr(truth, name) for name in _TRUTH_SINGLE}
    for name in _TRUTH_PER_BLOCK:
        arrays.update({f"{name}_{i + 1}": a for i, a in enumerate(getattr(truth, name))})
    _save(path, "truth", arrays, {"k": len(truth.joint_loadings)})


def load_truth(path) -> SimTruth:
    manifest, arrays = _load(path, "truth")
    k = manifest["k"]
    return SimTruth(
        **{name: arrays[name] for name in _TRUTH_SINGLE},
        **{name: _per_block(arrays, name, k) for name in _TRUTH_PER_BLOCK},
    )
