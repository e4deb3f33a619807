"""One implementation per job: singular vectors, the least-squares fallback
and the SVD, eigh and QR call sites all live in ``sjive.linalg``."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np

import sjive
from sjive.baselines import fit_pca_regression
from sjive.core import FitConfig, Ranks, fit

SRC = Path(sjive.__file__).resolve().parent


def _calls(text: str, name: str):
    """Argument text of every call ``name(...)`` in ``text``."""
    for match in re.finditer(re.escape(name) + r"\(", text):
        depth, i = 1, match.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        yield text[match.end():i - 1]


def test_svd_and_pinv_fallback_only_in_linalg():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        text = path.read_text(encoding="utf-8")
        # Singular values alone (compute_uv=False) are fine anywhere.
        offenders += [f"{path.name}: svd({args})" for args in _calls(text, "linalg.svd")
                      if "compute_uv=False" not in args]
        for name in ("eigh", "qr"):
            offenders += [f"{path.name}: {name}({args})"
                          for args in _calls(text, f"linalg.{name}")]
        if "LinAlgError" in text:
            offenders.append(f"{path.name}: LinAlgError fallback")
    assert offenders == []


def test_every_linalg_function_has_a_caller_elsewhere():
    # A primitive that only its own module or a test calls is not one the
    # package needs.
    def called(tree):
        return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))}

    public = [node.name for node in ast.parse((SRC / "linalg.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    used = set().union(*(called(ast.parse(path.read_text(encoding="utf-8")))
                         for path in SRC.glob("*.py") if path.name != "linalg.py"))
    assert public and [name for name in public if name not in used] == []


def _singular_problem():
    # One nonzero entry: the second score row comes out exactly zero.
    x = np.zeros((2, 4))
    x[0, 0] = 2.0
    return x, np.array([1.0, 2.0, 0.5, -1.0])


def test_least_squares_fallback_warns_once_in_both_callers():
    x, y = _singular_problem()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, _ = fit([x], y, FitConfig(eta=1.0, ranks=Ranks(1, (1,))))
    assert [str(w.message) for w in caught] == [
        "score Gram matrix is singular; using a pseudoinverse"]
    assert model.theta_joint.tolist() == [0.5]
    assert model.theta_indiv[0].tolist() == [0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bm = fit_pca_regression([x], y, 2)
    assert [str(w.message) for w in caught] == [
        "score Gram matrix is singular; using a pseudoinverse"]
    assert bm.coefficients.tolist() == [0.5, 0.0]


def test_svd_is_looked_up_at_call_time(monkeypatch):
    # Replacements installed on numpy.linalg see every SVD, eigh and QR of a
    # fit. The default path's loop makes one eigh per nonzero-rank update per
    # sweep and no QR or SVD; the model's factors take one SVD per
    # nonzero-rank part at the end, so that count does not grow with the
    # iterations.
    rng = np.random.default_rng(3)
    blocks = [rng.normal(size=(6, 9)), rng.normal(size=(5, 9))]
    y = rng.normal(size=9)
    for ranks in (Ranks(1, (1, 1)), Ranks(2, (0, 1))):
        updates = (ranks.joint > 0) + sum(r > 0 for r in ranks.individual)
        counts = []
        for max_iter in (1, 3):
            calls = {"svd": 0, "eigh": 0, "qr": 0}
            for name in calls:
                def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(np.linalg, name, counting)
            _, report = fit(blocks, y, FitConfig(eta=0.5, ranks=ranks, max_iter=max_iter,
                                                 tol=1e-16))
            monkeypatch.undo()
            assert report.iterations == max_iter
            # iterations + 1 sweeps in the loop
            assert calls["eigh"] == updates * (report.iterations + 1)
            counts.append((calls["svd"], calls["qr"]))
        assert counts[0] == counts[1] == (updates, 0)
