"""Command-line interface.

Subcommands: simulate, fit, predict, select, benchmark, evaluate. All
numeric outputs are CSV files; every output directory gets a plain-text
manifest echoing the command, configuration, seed and runtime so the run
can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .archive import load_model, load_truth, save_model, save_truth
from .bench import run_benchmark
from .core import FitConfig, Ranks, fit
from .data import (
    MultiSourceDataset,
    Outcome,
    load_csv,
    standardize,
    standardize_outcome_with,
    standardize_with,
    write_csv,
)
from .errors import ConfigError, ParseError, SJiveError
from .linalg import parallel_workers
from .metrics import component_inference, meta_loadings, recovery_error, test_mse
from .predict import estimate_scores, predict
from .selection import DEFAULT_ETA_GRID, make_cv_plan, select_model, warn_unconverged
from .simulate import SimConfig, generate


def _read_sim_config(path, seed=None):
    """Parse a key = value config file with a [simulation] section; a
    ``seed`` that is not None overrides the file's seed. A missing required
    key or a value that does not parse is a ConfigError naming the key."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "simulation" not in parser:
        raise ConfigError(f"{path}: missing [simulation] section")
    sec = parser["simulation"]

    def value(key, kind, fallback=None):
        if key not in sec:
            if fallback is None:
                raise ConfigError(f"{path}: [simulation] has no {key!r} key")
            return fallback
        try:
            return kind(sec[key])
        except (configparser.Error, ValueError):
            raise ConfigError(f"{path}: {key} = {sec.get(key, raw=True)!r} is not valid") from None

    def ints(text):
        return tuple(int(v.strip()) for v in text.split(","))

    cfg = SimConfig(
        k=value("k", int),
        p=value("p", ints),
        n=value("n", int),
        rank_joint=value("rank_joint", int),
        rank_indiv=value("rank_indiv", ints),
        w_joint=value("w_joint", float, 1.0),
        w_indiv=value("w_indiv", float, 1.0),
        x_err=value("x_err", float, 0.0),
        y_err=value("y_err", float, 0.0),
        r_prop=value("r_prop", float, 1.0),
        seed=value("seed", int, 0) if seed is None else seed,
    )
    n_test = value("n_test", int, cfg.n)
    if n_test < 1:
        raise ConfigError(f"{path}: n_test = {n_test} must be at least 1")
    return cfg, n_test


def _write_manifest(outdir: Path, command: str, params: dict, seed, runtime: float):
    lines = [
        f"command = {command}",
        f"package_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"seed = {seed}",
        f"runtime_seconds = {runtime:.3f}",
    ]
    for key, val in params.items():
        lines.append(f"{key} = {val}")
    (outdir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _read_inputs(args) -> tuple[MultiSourceDataset, Outcome | None]:
    """The ``--x`` blocks and the ``--y`` outcome (None without one), whose
    sample ids must equal the blocks'."""
    mats = [load_csv(p, samples_in_rows=args.samples_as_rows) for p in args.x]
    raw = MultiSourceDataset.from_labeled(mats)
    if args.y is None:
        return raw, None
    mat = load_csv(args.y, samples_in_rows=args.samples_as_rows)
    if mat.values.shape[0] != 1:
        raise ParseError(f"{args.y}: outcome file must contain exactly one variable row")
    if mat.col_ids != raw.sample_ids:
        raise ParseError("outcome sample ids do not match the block sample ids")
    return raw, Outcome(mat.values[0])


def _number(flag: str, text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{flag}: {text!r} is not a number") from None


def _parse_ranks(text: str, k: int) -> Ranks:
    parts = text.split(",")
    if len(parts) != k + 1:
        raise ConfigError(
            f"--ranks needs {k + 1} comma-separated values (joint,r1..r{k}), got {text!r}"
        )
    vals = [_number("--ranks", p, int) for p in parts]
    return Ranks(vals[0], tuple(vals[1:]))


def _fold_trace_rows(trace):
    n_folds = max((len(c["fold_mses"]) for c in trace.candidates), default=0)
    header = ["candidate", "mean_mse", *(f"fold{i + 1}_mse" for i in range(n_folds)),
              "unconverged"]
    rows = [
        [c["candidate"], repr(c["mean_mse"]), *(repr(v) for v in c["fold_mses"]),
         c["unconverged"]]
        for c in trace.candidates
    ]
    return header, rows


def _count_unconverged(reports) -> dict:
    """Warn about the selection's fold fits that stopped at max_iter or on a
    rising sweep, and count them for the manifest."""
    warn_unconverged(reports)
    return {"unconverged_fits": sum(not r.converged for r in reports)}


def _load_and_score(args):
    """Model, new data standardized with its training moments, the raw
    outcome (None without ``--y``), and scores."""
    model, _ = load_model(args.model)
    raw, y_raw = _read_inputs(args)
    data = standardize_with(raw, model.block_scalers) if model.block_scalers else raw
    return model, data, y_raw, estimate_scores(model, data)


def _cmd_simulate(args, outdir):
    cfg, _ = _read_sim_config(args.config, args.seed)
    data, y, truth = generate(cfg)
    for i, block in enumerate(data.blocks):
        write_csv(outdir / f"X{i + 1}.csv", block, data.variable_ids[i], data.sample_ids)
    write_csv(outdir / "y.csv", y.values[None, :], ["y"], data.sample_ids)
    save_truth(truth, outdir / "truth.zip")
    params = {**cfg.__dict__, "outputs": "X*.csv, y.csv, truth.zip"}
    return params, cfg.seed, f"wrote {cfg.k} blocks, outcome and truth archive to {outdir}"


def _cmd_fit(args, outdir):
    raw, y_raw = _read_inputs(args)
    policy = "drop" if args.drop_constant else "error"
    data, y = standardize(raw, y_raw, policy=policy)
    eta = None if args.eta == "auto" else _number("--eta", args.eta)
    ranks = None if args.ranks == "auto" else _parse_ranks(args.ranks, data.k)
    cv_counts = {}
    if eta is None or ranks is None:
        grid = DEFAULT_ETA_GRID if eta is None else (eta,)
        reports: list = []
        eta, ranks, *_ = select_model(raw, y_raw, make_cv_plan(data.n, seed=args.seed), grid,
                                      ranks, max_iter=args.max_iter, tol=args.tol,
                                      policy=policy, reports=reports)
        cv_counts = _count_unconverged(reports)
    cfg = FitConfig(eta=eta, ranks=ranks, max_iter=args.max_iter, tol=args.tol)
    model, report = fit(data, y, cfg)
    save_model(model, outdir / "model.zip", report)
    _write_rows(
        outdir / "fit_report.csv",
        ["iteration", "objective"],
        [(i, repr(v)) for i, v in enumerate(report.objective_trace)],
    )
    dropped = [
        f"block{i + 1}:{','.join(sc.dropped_ids)}"
        for i, sc in enumerate(data.standardization or [])
        if sc.dropped_ids
    ]
    params = {
        "x": ";".join(args.x),
        "y": args.y,
        "eta": eta,
        "ranks": str(ranks),
        "tol": args.tol,
        "max_iter": args.max_iter,
        "converged": report.converged,
        "iterations": report.iterations,
        "final_objective": repr(report.final_objective),
        "dropped_variables": ";".join(dropped) if dropped else "none",
        "degenerate": ";".join(model.degenerate) or "none",
        **cv_counts,
    }
    summary = (
        f"fit eta={eta:g} ranks=({ranks}) "
        f"objective={report.final_objective:.6g} "
        f"{'converged' if report.converged else 'NOT converged'} "
        f"after {report.iterations} iterations -> {outdir / 'model.zip'}"
    )
    return params, args.seed, summary


def _cmd_predict(args, outdir):
    model, data, _, est = _load_and_score(args)
    columns = [predict(model, est), model.theta_joint @ est.joint_scores]
    columns += [th @ s for th, s in zip(model.theta_indiv, est.indiv_scores)]
    header = ["predicted", "contrib_joint"] + [f"contrib_block{i + 1}" for i in range(model.k)]
    write_csv(outdir / "predictions.csv", np.column_stack(columns), data.sample_ids, header,
              corner="sample_id")
    params = {"model": args.model, "x": ";".join(args.x), "n_predicted": data.n}
    return params, "n/a", f"wrote predictions for {data.n} samples to {outdir / 'predictions.csv'}"


def _cmd_select(args, outdir):
    raw, y_raw = _read_inputs(args)
    plan = make_cv_plan(raw.n, seed=args.seed)
    grid = (
        tuple(_number("--eta-grid", v) for v in args.eta_grid.split(","))
        if args.eta_grid
        else DEFAULT_ETA_GRID
    )
    reports: list = []
    eta, ranks, rank_trace, eta_trace = select_model(
        raw, y_raw, plan, eta_grid=grid, iterate=args.iterate,
        policy="drop" if args.drop_constant else "error", reports=reports,
    )
    header, rows = _fold_trace_rows(rank_trace)
    _write_rows(outdir / "rank_trace.csv", header, rows)
    header, rows = _fold_trace_rows(eta_trace)
    _write_rows(outdir / "eta_trace.csv", header, rows)
    _write_rows(
        outdir / "chosen.csv",
        ["eta", "rank_joint", *(f"rank_block{i + 1}" for i in range(raw.k))],
        [[eta, ranks.joint, *ranks.individual]],
    )
    params = {"x": ";".join(args.x), "y": args.y, "eta": eta, "ranks": str(ranks),
              "eta_grid": ",".join(f"{g:g}" for g in grid), **_count_unconverged(reports)}
    return params, args.seed, f"selected eta={eta:g}, ranks=({ranks}) -> {outdir}"


def _cmd_benchmark(args, outdir):
    sim_cfg, n_test = _read_sim_config(args.config, args.seed)
    eta = "cv" if args.eta == "cv" else _number("--eta", args.eta)
    result = run_benchmark(
        sim_cfg,
        reps=args.reps,
        n_test=n_test,
        eta=eta,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    rep_rows = []
    for r in result.replicates:
        for m in result.methods:
            rep_rows.append([r.rep, m, repr(r.mses[m])])
    _write_rows(outdir / "replicates.csv", ["rep", "method", "test_mse"], rep_rows)
    means = result.mean_mses()
    wins = result.win_rates()
    _write_rows(
        outdir / "summary.csv",
        ["method", "mean_test_mse", "win_percent"],
        [[m, repr(means[m]), repr(wins[m])] for m in result.methods],
    )
    _write_rows(
        outdir / "signal.csv",
        ["rep", "signal_top_sv", "noise_top_sv", "eta_used"],
        [
            [r.rep, repr(r.signal_sv), repr(r.noise_sv), repr(r.eta_used)]
            for r in result.replicates
        ],
    )
    params = {**sim_cfg.__dict__, "n_test": n_test, "reps": args.reps, "eta": args.eta,
              "workers": parallel_workers(),
              "unconverged_fits": sum(r.unconverged for r in result.replicates)}
    summary = [f"benchmark over {args.reps} replicates -> {outdir / 'summary.csv'}"]
    summary += [f"  {m}: mean test MSE {means[m]:.4f}, wins {wins[m]:.0f}%" for m in result.methods]
    return params, sim_cfg.seed, "\n".join(summary)


def _cmd_evaluate(args, outdir):
    model, data, y_raw, est = _load_and_score(args)
    yhat_raw = predict(model, est)
    outputs = {}
    if y_raw is not None:
        if model.outcome_scaler is not None:
            y_std = standardize_outcome_with(y_raw.values, model.outcome_scaler)
            yhat_std = predict(model, est, standardized=True)
        else:
            y_std, yhat_std = y_raw.values, yhat_raw
        mse = test_mse(y_std, yhat_std)
        write_csv(outdir / "predictions_scatter.csv", np.column_stack([y_raw.values, yhat_raw]),
                  data.sample_ids, ["y_true", "y_pred"], corner="sample_id")
        _write_rows(outdir / "metrics.csv", ["metric", "value"],
                    [["test_mse_standardized", repr(mse)], ["n", data.n]])
        outputs["test_mse"] = f"{mse:.6g}"
        # The component scores are the training samples' scores.
        if data.sample_ids != model.sample_ids:
            outputs["inference"] = "skipped: samples are not the training samples"
        else:
            rows = [
                [c.name, c.rank, repr(c.partial_r2), repr(c.f_stat), repr(c.p_value)]
                for c in component_inference(model, y_std)
            ]
            _write_rows(
                outdir / "inference.csv",
                ["component", "rank", "partial_r2", "f_stat", "p_value"],
                rows,
            )
    var_ids = model.variable_ids or [[f"v{j + 1}" for j in range(p)] for p in model.p]
    if model.theta_joint is not None:
        for i, m in enumerate(meta_loadings(model)):
            write_csv(outdir / f"meta_loadings_block{i + 1}.csv", m[:, None], var_ids[i],
                      ["meta_loading"], corner="variable_id")
    train_ids = model.sample_ids or [f"s{j + 1}" for j in range(model.n)]
    joint, indiv = model.joint_structure(), model.individual_structure()
    for i in range(model.k):
        write_csv(outdir / f"heatmap_joint_block{i + 1}.csv", joint[i], var_ids[i], train_ids)
        write_csv(outdir / f"heatmap_indiv_block{i + 1}.csv", indiv[i], var_ids[i], train_ids)
    if args.truth:
        truth = load_truth(args.truth)
        pairs = [(np.vstack(joint), truth.stacked_joint()), *zip(indiv, truth.indiv_structure)]
        # A component with no true structure (a zero individual rank) has no
        # relative error.
        errors = [recovery_error(est, true) if np.any(true) else np.nan for est, true in pairs]
        write_csv(outdir / "recovery.csv", np.array(errors)[:, None],
                  ["joint", *(f"block{i + 1}" for i in range(model.k))], ["recovery_error"],
                  corner="component")
    params = {"model": args.model, "x": ";".join(args.x), "y": args.y or "none",
              "truth": args.truth or "none", **outputs}
    return params, "n/a", f"evaluation written to {outdir}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjive",
        description="Joint/individual multi-source decomposition with supervised prediction",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--samples-as-rows", action="store_true",
                       help="input CSVs store samples as rows")

    def add_cv_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the cross-validation folds, recorded in outputs")

    p_sim = sub.add_parser("simulate", help="generate synthetic blocks, outcome and truth")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the decomposition to CSV blocks")
    p_fit.add_argument("--x", action="append", required=True, help="block CSV (repeatable)")
    p_fit.add_argument("--y", required=True, help="outcome CSV (single row)")
    p_fit.add_argument("--eta", default="0.5", help="weight in (0,1], or 'auto' for CV")
    p_fit.add_argument("--ranks", default="auto",
                       help="'rJ,r1,..,rk' or 'auto' for forward-selection CV")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--tol", type=float, default=1e-6)
    p_fit.add_argument("--max-iter", type=int, default=1000)
    p_fit.add_argument("--drop-constant", action="store_true",
                       help="drop zero-variance variables instead of erroring")
    add_common(p_fit)
    add_cv_seed(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predict outcomes for new samples")
    p_pred.add_argument("--model", required=True, help="model archive from fit")
    p_pred.add_argument("--x", action="append", required=True)
    p_pred.add_argument("--out", required=True)
    add_common(p_pred)
    p_pred.set_defaults(func=_cmd_predict, y=None)

    p_sel = sub.add_parser("select", help="cross-validated weight and rank selection")
    p_sel.add_argument("--x", action="append", required=True)
    p_sel.add_argument("--y", required=True)
    p_sel.add_argument("--out", required=True)
    p_sel.add_argument("--eta-grid", default=None, help="comma-separated grid values")
    p_sel.add_argument("--iterate", action="store_true",
                       help="repeat rank selection once at the chosen weight")
    p_sel.add_argument("--drop-constant", action="store_true",
                       help="drop zero-variance variables instead of erroring")
    add_common(p_sel)
    add_cv_seed(p_sel)
    p_sel.set_defaults(func=_cmd_select)

    p_bench = sub.add_parser("benchmark", help="replicated method comparison on generated data")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--eta", default="0.5", help="fixed weight or 'cv'")
    p_bench.add_argument("--tol", type=float, default=1e-6)
    p_bench.add_argument("--max-iter", type=int, default=1000)
    p_bench.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_eval = sub.add_parser("evaluate", help="reports for a fitted model on data")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--x", action="append", required=True)
    p_eval.add_argument("--y", default=None)
    p_eval.add_argument("--truth", default=None, help="truth archive from simulate")
    p_eval.add_argument("--out", required=True)
    add_common(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    """Run one command. Each ``_cmd_*`` writes its outputs into ``--out``
    and returns (manifest parameters, seed, summary line); errors in the
    inputs or files exit with code 2."""
    args = _build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        params, seed, summary = args.func(args, outdir)
        _write_manifest(outdir, args.command, params, seed, time.perf_counter() - t0)
        print(summary)
    except (SJiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
