"""Spans around the package's public functions, for the traced run only.

The package imports functions by name (``from .core import fit``), so a
function is replaced in every ``sjive`` module that binds it, found by
identity. Submodules are reached through ``sys.modules`` because the package
rebinds ``sjive.predict`` to the function of that name. The ``numpy.linalg``
kernels are replaced on ``numpy.linalg`` itself: the package looks them up
there at call time, while numpy's own internal calls (``pinv`` calling
``svd``) do not pass through the replacement and are not counted twice.

Spans (name, start, end, parent) stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name) of every wrapped package function.
PACKAGE_TARGETS = (
    ("sjive.core", "fit", "core.fit"),
    ("sjive.predict", "estimate_scores", "predict.estimate_scores"),
    ("sjive.data", "load_csv", "data.load_csv"),
    ("sjive.data", "standardize", "data.standardize"),
    ("sjive.data", "compress", "data.compress"),
    ("sjive.archive", "save_model", "archive.save_model"),
    ("sjive.archive", "load_model", "archive.load_model"),
    ("sjive.selection", "cv_fold_mses", "selection.cv_fold_mses"),
    ("sjive.baselines", "fit_jive_predict", "baselines"),
    ("sjive.baselines", "fit_pca_regression", "baselines"),
    ("sjive.baselines", "baseline_predict", "baselines"),
    ("sjive.simulate", "generate", "simulate.generate"),
)
NUMPY_TARGETS = (("svd", "numpy.svd"), ("eigh", "numpy.eigh"), ("pinv", "numpy.pinv"))


def patch_everywhere(original, replacement) -> list:
    """Replace ``original`` in every loaded ``sjive`` module that binds it;
    returns the undo list for ``restore``."""
    undo = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "sjive":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo: list) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)
    undo.clear()


def svd_flop(shape, compute_uv: bool) -> float:
    """Flops of a thin SVD of an m x n matrix, computed from its shape
    (Golub & Van Loan, R-SVD: 6 l k^2 + 20 k^3 with vectors, 4 l k^2 - 4 k^3 / 3
    without, where k = min(m, n), l = max(m, n))."""
    m, n = shape[-2], shape[-1]
    k, l = min(m, n), max(m, n)
    if compute_uv:
        return 6.0 * l * k * k + 20.0 * k ** 3
    return 4.0 * l * k * k - 4.0 * k ** 3 / 3.0


class Tracer:
    """Records spans and per-span-name totals while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the enclosed code."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after(self, name):
        add = self.totals

        def fit(args, kwargs, result):
            add["core.fit.iters"] += result[1].iterations
            add["core.fit.unconverged"] += not result[1].converged

        def scores(args, kwargs, result):
            add["predict.estimate_scores.iters"] += result.iterations

        def load_csv(args, kwargs, result):
            add["data.load_csv.mb"] += os.path.getsize(args[0]) / 1e6

        def save_model(args, kwargs, result):
            add["archive.model_kb"] += os.path.getsize(args[1]) / 1e3

        def svd(args, kwargs, result):
            uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            add["numpy.svd.gflop"] += svd_flop(np.shape(args[0]), uv) / 1e9

        return {"core.fit": fit, "predict.estimate_scores": scores, "data.load_csv": load_csv,
                "archive.save_model": save_model, "numpy.svd": svd}.get(name)

    def install(self) -> None:
        for modname, attr, name in PACKAGE_TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._undo += patch_everywhere(original, self._wrap(name, original, self._after(name)))
        for attr, name in NUMPY_TARGETS:
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self._wrap(name, original, self._after(name)))
            self._undo.append((np.linalg, attr, original))

    def uninstall(self) -> None:
        restore(self._undo)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def seconds(self, name) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
