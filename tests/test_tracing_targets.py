"""The benchmark's traced run wraps package functions by (module, name);
a refactor that renames or removes one would silently drop its metrics."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import sjive.core
from sjive.core import FitConfig, Ranks

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_targets_exist_and_are_callable():
    tracing = _tracing()
    assert tracing.PACKAGE_TARGETS
    for modname, attr, _ in tracing.PACKAGE_TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_tracer_counts_fit_and_compress_calls():
    tracing = _tracing()
    for modname, _, _ in tracing.PACKAGE_TARGETS:
        importlib.import_module(modname)
    rng = np.random.default_rng(0)
    blocks = [rng.normal(size=(20, 10)), rng.normal(size=(6, 10))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sjive.core.fit(blocks, rng.normal(size=10), FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), max_iter=3))
    finally:
        tracer.uninstall()
    assert tracer.calls("core.fit") == 1
    assert tracer.calls("data.compress") == 1
