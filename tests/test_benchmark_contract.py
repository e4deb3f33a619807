"""What the benchmark's ``sim-replicate`` workload reads from
``sjive.bench.run_replicate``: the MSE keys in their order, and both fits
of a replicate seen through ``perfbench/workloads.FitLog``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sjive.bench import run_replicate
from sjive.cli import main
from sjive.metrics import test_mse as mse_of
from sjive.predict import estimate_scores, predict
from sjive.simulate import SimConfig, generate, train_test_split

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CFG = SimConfig(k=3, p=(12, 10, 8), n=20, rank_joint=1, rank_indiv=(1, 0, 1),
                x_err=0.3, y_err=0.2, seed=41)
METHODS = ["sjive", "jive_predict", "concat_pca",
           "individual_pca_1", "individual_pca_2", "individual_pca_3"]


@pytest.fixture()
def fit_log(monkeypatch):
    """``perfbench/workloads.FitLog``, imported the way ``perfbench/run.py``
    imports it (its directory on ``sys.path``)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module.FitLog
    for name in ("checks", "gen", "tracing"):
        if getattr(sys.modules.get(name), "__file__", "").startswith(str(PERFBENCH)):
            del sys.modules[name]


def test_replicate_mse_keys_and_summary_rows_in_order(tmp_path):
    assert list(run_replicate(CFG, 0, max_iter=200).mses) == METHODS
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("[simulation]\nk = 3\np = 12, 10, 8\nn = 20\nrank_joint = 1\n"
                   "rank_indiv = 1, 0, 1\nx_err = 0.3\ny_err = 0.2\nseed = 41\n",
                   encoding="utf-8")
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", str(cfg), "--reps", "1", "--out", str(out)]) == 0
    rows = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == METHODS


@pytest.mark.parametrize("rep", [0, 1])
def test_fit_log_sees_both_fits_of_a_replicate(fit_log, rep):
    with fit_log() as log:
        res = run_replicate(CFG, rep, n_test=15, eta=0.5)
    assert [cfg.eta for _, _, cfg, _, _ in log.fits] == [0.5, 1.0]
    # Each logged model is the one its method's test MSE was scored with.
    data, y, _ = generate(SimConfig(**{**CFG.__dict__, "n": CFG.n + 15, "seed": CFG.seed + rep}))
    _, _, test_x, test_y = train_test_split(data, y, CFG.n)
    for method, (_, _, _, model, _) in zip(("sjive", "jive_predict"), log.fits):
        yhat = predict(model, estimate_scores(model, test_x), standardized=True)
        assert mse_of(test_y.values, yhat) == res.mses[method]
    assert np.isfinite(list(res.mses.values())).all()
