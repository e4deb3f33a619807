import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sjive
from sjive.cli import main
from sjive.data import load_csv, write_csv
from sjive.linalg import parallel_workers

SIM_CFG = """[simulation]
k = 2
p = 15, 12
n = 24
n_test = 12
rank_joint = 1
rank_indiv = 1, 1
w_joint = 1.0
w_indiv = 1.0
x_err = 0.2
y_err = 0.1
r_prop = 1.0
seed = 5
"""


@pytest.fixture()
def simdir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG, encoding="utf-8")
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_simulate_outputs(simdir):
    _, out = simdir
    for name in ["X1.csv", "X2.csv", "y.csv", "truth.zip", "manifest.txt"]:
        assert (out / name).exists()
    x1 = load_csv(out / "X1.csv")
    assert x1.values.shape == (15, 24)  # n samples (n_test is benchmark-only)
    y = load_csv(out / "y.csv")
    assert y.values.shape == (1, 24)
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "seed = 5" in manifest
    assert "command = simulate" in manifest


def test_simulate_reproducible(simdir, tmp_path):
    cfg, out = simdir
    out2 = tmp_path / "data2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ["X1.csv", "X2.csv", "y.csv"]:
        assert (out / name).read_bytes() == (out2 / name).read_bytes()
    out3 = tmp_path / "data3"
    assert main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "6"]) == 0
    assert "seed = 6" in (out3 / "manifest.txt").read_text(encoding="utf-8")
    assert (out / "X1.csv").read_bytes() != (out3 / "X1.csv").read_bytes()


def test_fit_predict_evaluate_pipeline(simdir, tmp_path):
    _, out = simdir
    fitdir = tmp_path / "fit"
    rc = main([
        "fit",
        "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
        "--y", str(out / "y.csv"),
        "--eta", "0.5", "--ranks", "1,1,1",
        "--out", str(fitdir),
    ])
    assert rc == 0
    assert (fitdir / "model.zip").exists()
    rows = _read_rows(fitdir / "fit_report.csv")
    assert rows[0] == ["iteration", "objective"]
    objectives = [float(r[1]) for r in rows[1:]]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(objectives, objectives[1:]))

    preddir = tmp_path / "pred"
    rc = main([
        "predict",
        "--model", str(fitdir / "model.zip"),
        "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
        "--out", str(preddir),
    ])
    assert rc == 0
    rows = _read_rows(preddir / "predictions.csv")
    assert rows[0][:2] == ["sample_id", "predicted"]
    assert "contrib_joint" in rows[0]
    assert len(rows) == 25  # header + 24 samples
    manifest = (preddir / "manifest.txt").read_text(encoding="utf-8")
    assert "n_predicted = 24" in manifest
    assert "score_iterations" not in manifest and "score_converged" not in manifest

    evaldir = tmp_path / "eval"
    rc = main([
        "evaluate",
        "--model", str(fitdir / "model.zip"),
        "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
        "--y", str(out / "y.csv"),
        "--truth", str(out / "truth.zip"),
        "--out", str(evaldir),
    ])
    assert rc == 0
    for name in [
        "predictions_scatter.csv", "metrics.csv", "inference.csv",
        "recovery.csv", "heatmap_joint_block1.csv", "heatmap_indiv_block2.csv",
        "meta_loadings_block1.csv", "manifest.txt",
    ]:
        assert (evaldir / name).exists()
    rec = {r[0]: float(r[1]) for r in _read_rows(evaldir / "recovery.csv")[1:]}
    assert set(rec) == {"joint", "block1", "block2"}
    inf_rows = _read_rows(evaldir / "inference.csv")
    assert inf_rows[0] == ["component", "rank", "partial_r2", "f_stat", "p_value"]


def test_fit_reproducible_outputs(simdir, tmp_path):
    _, out = simdir
    args = [
        "fit",
        "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
        "--y", str(out / "y.csv"),
        "--eta", "0.5", "--ranks", "1,1,1",
    ]
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "model.zip").read_bytes() != b""
    assert (d1 / "fit_report.csv").read_bytes() == (d2 / "fit_report.csv").read_bytes()
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for fdir, pdir in [(d1, p1), (d2, p2)]:
        assert main([
            "predict", "--model", str(fdir / "model.zip"),
            "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
            "--out", str(pdir),
        ]) == 0
    assert (p1 / "predictions.csv").read_bytes() == (p2 / "predictions.csv").read_bytes()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_seed_rejected_where_nothing_is_seeded(simdir, tmp_path, command):
    _, out = simdir
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", str(tmp_path / "model.zip"), "--x", str(out / "X1.csv"),
              "--out", str(tmp_path / "o"), "--seed", "1"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_benchmark_command(simdir, tmp_path):
    cfg, _ = simdir
    bdir = tmp_path / "bench"
    rc = main([
        "benchmark", "--config", str(cfg), "--reps", "2",
        "--out", str(bdir), "--max-iter", "200",
    ])
    assert rc == 0
    summary = _read_rows(bdir / "summary.csv")
    assert summary[0] == ["method", "mean_test_mse", "win_percent"]
    methods = {r[0] for r in summary[1:]}
    assert {"sjive", "jive_predict", "concat_pca",
            "individual_pca_1", "individual_pca_2"} == methods
    wins = sum(float(r[2]) for r in summary[1:])
    assert wins == pytest.approx(100.0)
    reps = _read_rows(bdir / "replicates.csv")
    assert len(reps) == 1 + 2 * 5
    signal = _read_rows(bdir / "signal.csv")
    assert signal[0] == ["rep", "signal_top_sv", "noise_top_sv", "eta_used"]
    assert _manifest_value(bdir, "workers") == str(parallel_workers())


def test_benchmark_command_counts_unconverged_fits(simdir, tmp_path):
    cfg, _ = simdir
    bdir = tmp_path / "bench"
    with pytest.warns(RuntimeWarning, match="4 of 4 replicate fits stopped at max_iter"):
        rc = main(["benchmark", "--config", str(cfg), "--reps", "2",
                   "--out", str(bdir), "--max-iter", "1"])
    assert rc == 0
    assert "unconverged_fits = 4" in (bdir / "manifest.txt").read_text(encoding="utf-8")


def test_select_command(tmp_path):
    # tiny noiseless problem so selection is quick and decisive
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "[simulation]\nk = 2\np = 12, 12\nn = 30\nrank_joint = 1\n"
        "rank_indiv = 1, 1\nx_err = 0.05\ny_err = 0.05\nseed = 9\n",
        encoding="utf-8",
    )
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    seldir = tmp_path / "sel"
    rc = main([
        "select",
        "--x", str(out / "X1.csv"), "--x", str(out / "X2.csv"),
        "--y", str(out / "y.csv"),
        "--eta-grid", "0.25,0.5,0.75",
        "--out", str(seldir),
    ])
    assert rc == 0
    chosen = _read_rows(seldir / "chosen.csv")
    assert chosen[0] == ["eta", "rank_joint", "rank_block1", "rank_block2"]
    ranks = [int(v) for v in chosen[1][1:]]
    # greedy selection on this tiny problem may stop early once the first
    # direction explains most of the outcome; it must pick at least one
    assert sum(ranks) >= 1
    trace = _read_rows(seldir / "rank_trace.csv")
    assert trace[0] == ["candidate", "mean_mse", *(f"fold{f}_mse" for f in range(1, 6)),
                        "unconverged"]


def test_cli_error_paths(simdir, tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    rc = main([
        "fit", "--x", str(missing), "--y", str(missing),
        "--eta", "0.5", "--ranks", "1,1", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    badonoff = tmp_path / "bad.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("id,s1,s2\nv1,1,NA\n", encoding="utf-8")
    y = tmp_path / "y.csv"
    y.write_text("id,s1,s2\ny,1,2\n", encoding="utf-8")
    rc = main([
        "fit", "--x", str(bad), "--y", str(y),
        "--eta", "0.5", "--ranks", "1,1", "--out", str(tmp_path / "o2"),
    ])
    assert rc == 2
    # Malformed numeric flags are input errors that name the flag.
    cfg, data = simdir
    xy = ["--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"), "--y", str(data / "y.csv")]
    capsys.readouterr()
    for flag, argv in [
        ("--ranks", ["fit", *xy, "--eta", "0.5", "--ranks", "1,x,1"]),
        ("--eta", ["fit", *xy, "--eta", "abc", "--ranks", "1,1,1"]),
        ("--eta-grid", ["select", *xy, "--eta-grid", "0.5,x"]),
        ("--eta", ["benchmark", "--config", str(cfg), "--eta", "x"]),
    ]:
        assert main([*argv, "--out", str(tmp_path / "o3")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")


def test_fit_rejects_non_utf8_csv(simdir, tmp_path, capsys):
    # A Latin-1 export is a ParseError naming the file, not a traceback.
    _, data = simdir
    latin = tmp_path / "latin.csv"
    latin.write_bytes((data / "X1.csv").read_text(encoding="utf-8")
                      .replace("\n", "\n\u00e9", 2).encode("latin-1"))
    capsys.readouterr()
    assert main(["fit", "--x", str(latin), "--x", str(data / "X2.csv"), "--y", str(data / "y.csv"),
                 "--eta", "0.5", "--ranks", "1,1,1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {latin}: not UTF-8 text (invalid continuation byte)\n"


@pytest.mark.parametrize("command", ["simulate", "benchmark"])
@pytest.mark.parametrize("old, new, key", [
    ("k = 2\n", "", "'k'"),
    ("n_test = 12", "n_test = twelve", "n_test"),
    ("n_test = 12", "n_test = 0", "n_test = 0"),
    # A misspelt key would otherwise leave its field at the default.
    ("x_err = 0.2", "x_eer = 0.9", "unknown [simulation] key 'x_eer'; the keys are k, p, n, "
     "rank_joint, rank_indiv, w_joint, w_indiv, x_err, y_err, r_prop, seed, n_test"),
    # A value that parses but that SimConfig rejects.
    ("x_err = 0.2", "x_err = 1.5", "noise fractions must lie in [0, 1)"),
], ids=["missing-k", "malformed-n_test", "zero-n_test", "unknown-key", "invalid-value"])
def test_config_errors_name_file_and_key(tmp_path, capsys, command, old, new, key):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace(old, new), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and key in err
    assert not list((tmp_path / "o").glob("*.csv"))


# The "Config file" example of README.md, verbatim.
README_CFG = """[simulation]
k = 2
p = 200, 200
n = 200
n_test = 200        ; benchmark only: extra held-out samples per replicate
rank_joint = 1
rank_indiv = 1, 1
w_joint = 1.0
w_indiv = 1.0
x_err = 0.5         ; share of block variance that is noise, in [0, 1)
y_err = 0.1         ; share of outcome variance that is noise
r_prop = 1.0        ; fraction of each component's ranks predictive of y
seed = 7
"""


def test_readme_config_example_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert README_CFG in readme.read_text(encoding="utf-8")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(README_CFG, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_csv(out / "X1.csv").values.shape == (200, 200)
    assert [_manifest_value(out, key) for key in ("x_err", "y_err", "r_prop", "seed")] == [
        "0.5", "0.1", "1.0", "7"]


@pytest.mark.parametrize("command, extra, seed", [
    ("simulate", ["--seed", "-3"], "-3"),
    ("simulate", [], "-1"),
    ("benchmark", ["--seed", "-4"], "-4"),
    ("benchmark", [], "-1"),
    ("fit", ["--ranks", "auto", "--seed", "-2"], "-2"),
    # With fixed --eta and --ranks the seed reaches no fold plan.
    ("fit", ["--eta", "0.5", "--ranks", "1,1,1", "--seed", "-2"], "-2"),
    ("select", ["--seed", "-5"], "-5"),
], ids=["simulate-flag", "simulate-config", "benchmark-flag", "benchmark-config", "fit-auto",
        "fit-fixed", "select"])
def test_negative_seed_is_an_error(simdir, tmp_path, capsys, command, extra, seed):
    # Every command rejects a negative seed alike, with one error line and
    # nothing written; a seed from the config file names the file.
    _, data = simdir
    where = ""
    if command in ("simulate", "benchmark"):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(SIM_CFG.replace("seed = 5", "seed = -1"), encoding="utf-8")
        argv = [command, "--config", str(cfg)]
        where = "" if extra else f"{cfg}: "
    else:
        argv = [command, "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
                "--y", str(data / "y.csv")]
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {where}seed must be non-negative, got {seed}\n"
    assert not list(out.glob("*"))


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_non_finite_tol_is_an_error(simdir, tmp_path, capsys, command, tol):
    # A nan tolerance would run every fit to --max-iter and an infinite one
    # would stop after one sweep; both exit 2 with nothing written.
    cfg, data = simdir
    if command == "benchmark":
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
                "--y", str(data / "y.csv"), "--eta", "0.5", "--ranks", "1,1,1"]
    capsys.readouterr()
    out = tmp_path / "o"
    assert main([*argv, "--tol", tol, "--max-iter", "40", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: tol must be positive and finite, got {tol}\n"
    assert not list(out.glob("*"))


def test_samples_as_rows_gives_the_same_fit_and_predictions(simdir, tmp_path):
    _, data = simdir
    rows = tmp_path / "rows"
    rows.mkdir()
    for name in ["X1.csv", "X2.csv", "y.csv"]:
        mat = load_csv(data / name)
        write_csv(rows / name, mat.values.T, mat.col_ids, mat.row_ids)
    outputs = []
    for src, flag in [(data, []), (rows, ["--samples-as-rows"])]:
        x = ["--x", str(src / "X1.csv"), "--x", str(src / "X2.csv")]
        fdir, pdir = tmp_path / f"fit{len(flag)}", tmp_path / f"pred{len(flag)}"
        assert main(["fit", *x, "--y", str(src / "y.csv"), "--eta", "0.5", "--ranks", "1,1,1",
                     "--out", str(fdir), *flag]) == 0
        assert main(["predict", "--model", str(fdir / "model.zip"), *x, "--out", str(pdir),
                     *flag]) == 0
        outputs.append([(d / name).read_bytes()
                        for d, name in [(fdir, "model.zip"), (pdir, "predictions.csv")]])
    assert (rows / "X1.csv").read_bytes() != (data / "X1.csv").read_bytes()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_benchmark_rejects_reps_below_one(simdir, tmp_path, capsys, reps):
    cfg, _ = simdir
    assert main(["benchmark", "--config", str(cfg), "--reps", reps,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: reps must be at least 1, got {reps}\n"


def test_cli_drop_constant_and_ranks_parsing(tmp_path):
    x = tmp_path / "x.csv"
    x.write_text(
        "id,s1,s2,s3,s4,s5,s6\n"
        "v1,1,2,3,4,5,6\n"
        "v2,2,2,2,2,2,2\n"
        "v3,3,1,4,1,5,9\n",
        encoding="utf-8",
    )
    y = tmp_path / "y.csv"
    y.write_text("id,s1,s2,s3,s4,s5,s6\ny,1.5,2.5,0.5,4.5,1.0,3.5\n", encoding="utf-8")
    outdir = tmp_path / "o"
    rc = main([
        "fit", "--x", str(x), "--y", str(y),
        "--eta", "0.5", "--ranks", "1,1", "--out", str(outdir),
    ])
    assert rc == 2  # constant variable rejected by default
    rc = main([
        "fit", "--x", str(x), "--y", str(y),
        "--eta", "0.5", "--ranks", "1,1", "--drop-constant",
        "--out", str(outdir),
    ])
    assert rc == 0
    manifest = (outdir / "manifest.txt").read_text(encoding="utf-8")
    assert "dropped_variables = block1:v2" in manifest


def test_fit_drop_constant_with_rank_selection(tmp_path):
    # Rank selection must standardize its folds with the same policy as
    # the final fit, or the constant row is rejected inside a fold.
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        SIM_CFG.replace("p = 15, 12", "p = 30, 30").replace("n = 24", "n = 40"),
        encoding="utf-8",
    )
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data), "--seed", "2"]) == 0
    rows = _read_rows(data / "X1.csv")
    rows[1][1:] = ["0.25"] * (len(rows[1]) - 1)
    with open(data / "X1.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    outdir = tmp_path / "fit"
    rc = main([
        "fit", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
        "--y", str(data / "y.csv"), "--drop-constant", "--out", str(outdir),
    ])
    assert rc == 0
    manifest = (outdir / "manifest.txt").read_text(encoding="utf-8")
    assert f"dropped_variables = block1:{rows[1][0]}" in manifest


def test_fit_manifest_lists_degenerate_components(tmp_path):
    # Five standardized samples hold four directions, so joint rank 2
    # leaves room for two individual components in block 1, not three.
    rng = np.random.default_rng(0)
    samples = [f"s{j}" for j in range(1, 6)]
    paths = []
    for name, rows in [("X1", 8), ("X2", 7), ("y", 1)]:
        paths.append(tmp_path / f"{name}.csv")
        write_csv(paths[-1], rng.normal(size=(rows, 5)),
                  [f"{name}_{i}" for i in range(rows)], samples)
    for ranks, expected in [("2,3,0", "individual 1 component 3"), ("2,2,0", "none")]:
        out = tmp_path / ranks
        assert main(["fit", "--x", str(paths[0]), "--x", str(paths[1]), "--y", str(paths[2]),
                     "--ranks", ranks, "--out", str(out)]) == 0
        assert _manifest_value(out, "degenerate") == expected


def _modules_loaded_by_cli_import(prefixes):
    """Names of the modules starting with one of ``prefixes`` that a fresh
    interpreter has loaded after ``import sjive.cli``."""
    src = str(Path(sjive.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, sjive.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is needed only for the F-test p-values; the CLI must not pay
    # its import on every call.
    assert _modules_loaded_by_cli_import(["scipy"]) == "[]"


def test_cli_import_leaves_process_pool_unloaded():
    # No command starts processes, and the thread pool module loads only when
    # folds or replicates run on threads; fit and predict must not pay for
    # importing either.
    assert _modules_loaded_by_cli_import(["multiprocessing", "concurrent"]) == "[]"


def test_select_drop_constant(tmp_path):
    x = tmp_path / "x.csv"
    x.write_text(
        "id," + ",".join(f"s{j}" for j in range(1, 11)) + "\n"
        "v1,1,2,3,4,5,6,7,8,9,10\n"
        "v2,2,2,2,2,2,2,2,2,2,2\n"
        "v3,3,1,4,1,5,9,2,6,5,3\n",
        encoding="utf-8",
    )
    y = tmp_path / "y.csv"
    y.write_text("id," + ",".join(f"s{j}" for j in range(1, 11)) + "\n"
                 "y,1.5,2.5,0.5,4.5,1.0,3.5,2.0,0.0,3.0,1.0\n", encoding="utf-8")
    args = ["select", "--x", str(x), "--y", str(y), "--eta-grid", "0.5"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 2
    assert main([*args, "--drop-constant", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "chosen.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fold fits stopping at --max-iter
@pytest.mark.parametrize("select", [("--ranks", "auto"), ("--eta", "auto", "--ranks", "1,1,1"),
                                    ("--ranks", "auto", "--eta", "auto")])
def test_fit_convergence_flags_reach_every_fold_fit(tmp_path, fit_configs, select):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace("p = 15, 12", "p = 12, 10").replace("n = 24", "n = 30"),
                   encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    fit_configs.clear()
    rc = main(["fit", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
               "--y", str(data / "y.csv"), *select, "--max-iter", "7", "--tol", "1e-3",
               "--out", str(tmp_path / "fit")])
    assert rc == 0
    assert len(fit_configs) > 5  # the fold fits and the final fit
    assert {(c.max_iter, c.tol) for c in fit_configs} == {(7, 1e-3)}


def _manifest_value(outdir, key):
    lines = (outdir / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return next(line.split(" = ", 1)[1] for line in lines if line.startswith(f"{key} = "))


@pytest.mark.parametrize("select", [("--ranks", "auto"), ("--eta", "auto", "--ranks", "1,1,1")])
def test_fit_manifest_counts_unconverged_fold_fits(simdir, tmp_path, fit_configs, select):
    _, data = simdir
    fit_configs.clear()
    with pytest.warns(RuntimeWarning, match="cross-validation fold fits stopped") as record:
        rc = main(["fit", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
                   "--y", str(data / "y.csv"), *select, "--max-iter", "1",
                   "--out", str(tmp_path / "fit")])
    assert rc == 0
    message = next(str(w.message) for w in record if "fold fits" in str(w.message))
    count, total = (int(v) for v in message.split()[:3:2])
    assert total == len(fit_configs) - 1  # every fit but the final one is a fold fit
    assert 0 < count <= total
    assert _manifest_value(tmp_path / "fit", "unconverged_fits") == str(count)


def test_select_manifest_counts_unconverged_fold_fits(simdir, tmp_path):
    _, data = simdir
    rc = main(["select", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
               "--y", str(data / "y.csv"), "--eta-grid", "0.5", "--out", str(tmp_path / "sel")])
    assert rc == 0
    assert _manifest_value(tmp_path / "sel", "unconverged_fits") == "0"
    # A fixed-rank, fixed-weight fit runs no selection and reports no count.
    rc = main(["fit", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
               "--y", str(data / "y.csv"), "--ranks", "1,1,1", "--out", str(tmp_path / "fit")])
    assert rc == 0
    assert "unconverged_fits" not in (tmp_path / "fit" / "manifest.txt").read_text(encoding="utf-8")


def test_select_traces_count_unconverged_fold_fits(simdir, tmp_path, monkeypatch):
    # select has no --max-iter, so its fold fits get a one-sweep budget here.
    import sjive.selection as selection

    real_fit = selection.fit
    monkeypatch.setattr(selection, "fit",
                        lambda data, y, cfg: real_fit(data, y, replace(cfg, max_iter=1)))
    _, data = simdir
    sel = tmp_path / "sel"
    with pytest.warns(RuntimeWarning, match="cross-validation fold fits stopped"):
        rc = main(["select", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
                   "--y", str(data / "y.csv"), "--eta-grid", "0.25,0.5", "--out", str(sel)])
    assert rc == 0
    traces = [_read_rows(sel / name) for name in ("rank_trace.csv", "eta_trace.csv")]
    counts = []
    for rows in traces:
        assert rows[0][-1] == "unconverged"
        counts.append({r[0]: int(r[-1]) for r in rows[1:]})
    assert all(0 <= c <= 5 for trace in counts for c in trace.values())
    # The weight search reuses the rank search's choice at eta 0.5 and its count.
    chosen = _manifest_value(sel, "ranks")
    reused = next(c for name, c in counts[0].items() if name.endswith(f"({chosen})"))
    assert counts[1]["eta=0.5"] == reused
    total = sum(counts[0].values()) + sum(counts[1].values()) - reused
    assert 0 < total == int(_manifest_value(sel, "unconverged_fits"))


def _split_samples(src, dst, cols):
    """Copy the simulated CSVs in ``src`` to ``dst``, keeping sample columns
    ``cols``."""
    dst.mkdir()
    for name in ("X1.csv", "X2.csv", "y.csv"):
        mat = load_csv(src / name)
        write_csv(dst / name, mat.values[:, list(cols)], mat.row_ids, [mat.col_ids[j] for j in cols])


def test_evaluate_infers_only_on_the_training_samples(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace("n = 24", "n = 40").replace("seed = 5", "seed = 3"),
                   encoding="utf-8")
    full = tmp_path / "full"
    assert main(["simulate", "--config", str(cfg), "--out", str(full)]) == 0
    train, held_out = tmp_path / "train", tmp_path / "held_out"
    _split_samples(full, train, range(20))
    _split_samples(full, held_out, range(20, 40))
    model = tmp_path / "fit" / "model.zip"
    assert main(["fit", "--x", str(train / "X1.csv"), "--x", str(train / "X2.csv"),
                 "--y", str(train / "y.csv"), "--ranks", "1,1,1",
                 "--out", str(model.parent)]) == 0
    for data, inferred in ((train, True), (held_out, False)):
        out = tmp_path / f"eval_{data.name}"
        assert main(["evaluate", "--model", str(model), "--x", str(data / "X1.csv"),
                     "--x", str(data / "X2.csv"), "--y", str(data / "y.csv"),
                     "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "inference.csv").exists() is inferred
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        skipped = "inference = skipped: samples are not the training samples" in manifest
        assert skipped is not inferred


def test_outcome_is_matched_to_the_blocks_by_sample_id(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace("n = 24", "n = 40").replace("seed = 5", "seed = 3"),
                   encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    xs = ["--x", str(data / "X1.csv"), "--x", str(data / "X2.csv")]
    model = tmp_path / "fit" / "model.zip"
    assert main(["fit", *xs, "--y", str(data / "y.csv"), "--ranks", "1,1,1",
                 "--out", str(model.parent)]) == 0
    y = load_csv(data / "y.csv")
    reversed_y = tmp_path / "y_reversed.csv"
    write_csv(reversed_y, y.values[:, ::-1], y.row_ids, y.col_ids[::-1])
    for argv in (["fit", *xs, "--ranks", "1,1,1"], ["select", *xs, "--eta-grid", "0.5"],
                 ["evaluate", "--model", str(model), *xs]):
        out = tmp_path / f"misaligned_{argv[0]}"
        assert main([*argv, "--y", str(reversed_y), "--out", str(out)]) == 2
        assert not (out / "manifest.txt").exists()


def test_evaluate_heatmaps_name_the_training_samples(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG, encoding="utf-8")
    sim, data = tmp_path / "sim", tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    data.mkdir()
    names = [f"patient{j:03d}" for j in range(24)]
    for name in ("X1.csv", "X2.csv", "y.csv"):
        mat = load_csv(sim / name)
        write_csv(data / name, mat.values, mat.row_ids, names)
    xs = ["--x", str(data / "X1.csv"), "--x", str(data / "X2.csv")]
    model = tmp_path / "fit" / "model.zip"
    assert main(["fit", *xs, "--y", str(data / "y.csv"), "--ranks", "1,1,1",
                 "--out", str(model.parent)]) == 0
    assert main(["evaluate", "--model", str(model), *xs, "--out", str(tmp_path / "eval")]) == 0
    for name in ("heatmap_joint_block1.csv", "heatmap_indiv_block2.csv"):
        assert _read_rows(tmp_path / "eval" / name)[0] == ["id", *names]
    # Archives written before sample ids were stored fall back to s1..sn.
    with np.load(model) as npz:
        arrays = {name: npz[name] for name in npz.files}
    manifest = json.loads(str(arrays.pop("manifest")))
    del manifest["sample_ids"]
    with open(model, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)
    assert main(["evaluate", "--model", str(model), *xs, "--out", str(tmp_path / "old")]) == 0
    header = _read_rows(tmp_path / "old" / "heatmap_joint_block1.csv")[0]
    assert header == ["id", *(f"s{j + 1}" for j in range(24))]


def test_evaluate_truth_with_a_zero_individual_rank(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace("k = 2", "k = 3").replace("p = 15, 12", "p = 15, 12, 10")
                   .replace("rank_indiv = 1, 1", "rank_indiv = 1, 0, 1"), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    xs = [arg for i in (1, 2, 3) for arg in ("--x", str(data / f"X{i}.csv"))]
    assert main(["fit", *xs, "--y", str(data / "y.csv"), "--ranks", "1,1,0,1",
                 "--out", str(tmp_path / "fit")]) == 0
    rc = main(["evaluate", "--model", str(tmp_path / "fit" / "model.zip"), *xs,
               "--truth", str(data / "truth.zip"), "--out", str(tmp_path / "eval")])
    assert rc == 0
    rec = {r[0]: float(r[1]) for r in _read_rows(tmp_path / "eval" / "recovery.csv")[1:]}
    assert list(rec) == ["joint", "block1", "block2", "block3"]
    assert np.isnan(rec["block2"])
    assert all(np.isfinite(rec[c]) for c in ("joint", "block1", "block3"))


def test_one_block_through_every_command(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "[simulation]\nk = 1\np = 12\nn = 30\nrank_joint = 1\nrank_indiv = 1\n"
        "x_err = 0.1\ny_err = 0.1\nseed = 3\n",
        encoding="utf-8",
    )
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    x, y = ["--x", str(data / "X1.csv")], ["--y", str(data / "y.csv")]
    fitdir = tmp_path / "fit"
    assert main(["fit", *x, *y, "--ranks", "auto", "--eta", "auto", "--out", str(fitdir)]) == 0
    manifest = (fitdir / "manifest.txt").read_text(encoding="utf-8")
    assert "unconverged_fits = 0" in manifest
    model = ["--model", str(fitdir / "model.zip")]
    assert main(["predict", *model, *x, "--out", str(tmp_path / "pred")]) == 0
    rows = _read_rows(tmp_path / "pred" / "predictions.csv")
    assert rows[0] == ["sample_id", "predicted", "contrib_joint", "contrib_block1"]
    assert len(rows) == 31
    assert main(["select", *x, *y, "--eta-grid", "0.25,0.75", "--out", str(tmp_path / "sel")]) == 0
    chosen = _read_rows(tmp_path / "sel" / "chosen.csv")
    assert chosen[0] == ["eta", "rank_joint", "rank_block1"]
    assert main(["evaluate", *model, *x, *y, "--truth", str(data / "truth.zip"),
                 "--out", str(tmp_path / "eval")]) == 0
    rec = {r[0]: float(r[1]) for r in _read_rows(tmp_path / "eval" / "recovery.csv")[1:]}
    assert list(rec) == ["joint", "block1"]


def test_blocks_must_list_the_model_variables_in_order(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.replace("n = 24", "n = 60").replace("seed = 5", "seed = 3"),
                   encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    # Variable b1_v2 is made constant, so the model drops it.
    x1 = load_csv(data / "X1.csv")
    x1.values[1] = 0.25
    write_csv(data / "X1.csv", x1.values, x1.row_ids, x1.col_ids)
    x2 = load_csv(data / "X2.csv")
    fitdir = tmp_path / "fit"
    assert main(["fit", "--x", str(data / "X1.csv"), "--x", str(data / "X2.csv"),
                 "--y", str(data / "y.csv"), "--ranks", "1,1,1", "--drop-constant",
                 "--out", str(fitdir)]) == 0

    def run(name, rows1, rows2):
        paths = [tmp_path / f"{name}_X1.csv", tmp_path / f"{name}_X2.csv"]
        for path, mat, rows in zip(paths, (x1, x2), (rows1, rows2)):
            write_csv(path, mat.values[rows], [mat.row_ids[r] for r in rows], mat.col_ids)
        xs = [arg for path in paths for arg in ("--x", str(path))]
        codes = []
        for command in ("predict", "evaluate"):
            out = tmp_path / f"{name}_{command}"
            codes.append(main([command, "--model", str(fitdir / "model.zip"), *xs,
                               "--out", str(out)]))
            assert (out / "manifest.txt").exists() is (codes[-1] == 0)
        return codes, capsys.readouterr().err

    in_order = [list(range(15)), list(range(12))]
    assert run("full", *in_order)[0] == [0, 0]
    assert run("kept", [0, *range(2, 15)], in_order[1])[0] == [0, 0]
    codes, err = run("reversed", in_order[0][::-1], in_order[1])
    assert codes == [2, 2]
    assert "variable 1 of block 1 is 'b1_v15' where the model has 'b1_v1'" in err
    # Positions count the variables left once the model's constant b1_v2 is
    # dropped: file row 3 is the model's variable 2.
    codes, err = run("swapped", [0, 1, 3, 2, *range(4, 15)], in_order[1])
    assert codes == [2, 2]
    assert "variable 2 of block 1 is 'b1_v4' where the model has 'b1_v3'" in err
    x2.row_ids[5] = "gene6"
    codes, err = run("renamed", in_order[0], in_order[1])
    assert codes == [2, 2]
    assert "renamed_X2.csv: variable 6 of block 2 is 'gene6' where the model has 'b2_v6'" in err
