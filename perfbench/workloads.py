"""The three workloads: inputs from the seed, rounds of operations, checks.

A round is the fixed unit of work a run repeats until its time is up:

- ``sim-replicate``: ``sjive.bench.run_replicate`` on each replicate of a
  fixed four-replicate study, in an order drawn from the seed.
- ``cv-select``: one ``sjive.selection.select_model`` call on each of three
  fixed base problems, shuffled afresh from (seed, round).
- ``tall-cli``: one ``sjive fit`` then one ``sjive predict``, each in its own
  interpreter; the traced run calls ``sjive.cli.main`` in-process instead.

Every fit the package makes during a round is kept (inputs, model, report)
so the checks can recompute its loss; keeping a reference costs about a
microsecond per fit and runs in the untraced run as well.
"""

from __future__ import annotations

import contextlib
import csv
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import gen
from tracing import patch_everywhere, restore

CLI_ENTRY = "import sys; from sjive.cli import main; sys.exit(main())"


class FitLog:
    """Records every call of ``sjive.core.fit`` while installed."""

    def __init__(self):
        self.fits: list[tuple] = []
        self._undo: list = []

    def __enter__(self):
        core = sys.modules["sjive.core"]
        original = core.fit

        def recorded(data, y, cfg, *args, **kwargs):
            model, report = original(data, y, cfg, *args, **kwargs)
            self.fits.append((data, y, cfg, model, report))
            return model, report

        self._undo = patch_everywhere(original, recorded)
        return self

    def __exit__(self, *exc):
        restore(self._undo)


@dataclass
class Op:
    """What one operation returned, kept for the checks."""

    seconds: float
    result: object
    fits: list
    inputs: object = None


class SimReplicate:
    """ALS on square blocks without compression, plus the baselines."""

    name = "sim-replicate"
    in_children = False
    SIM = dict(k=2, p=(200, 200), n=200, rank_joint=1, rank_indiv=(1, 1), x_err=0.5, y_err=0.1,
               seed=7)
    REPLICATES = (0, 1, 2, 3)
    N_TEST = 200
    ETA = 0.5
    calls_per_round = len(REPLICATES)

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed

    def prepare(self) -> None:
        from sjive.simulate import SimConfig

        self.cfg = SimConfig(**self.SIM)
        self.order = [self.REPLICATES[i]
                      for i in np.random.default_rng(self.seed).permutation(len(self.REPLICATES))]

    def round(self, r: int, tracer=None) -> list[Op]:
        from sjive.bench import run_replicate

        ops = []
        for rep in self.order:
            with FitLog() as log:
                t0 = time.perf_counter()
                res = run_replicate(self.cfg, rep, n_test=self.N_TEST, eta=self.ETA)
                dt = time.perf_counter() - t0
            ops.append(Op(dt, (rep, res), log.fits))
        return ops

    def check(self, op: Op) -> None:
        from sjive.simulate import generate

        r, res = op.result
        data, y, truth = generate(replace(self.cfg, n=self.cfg.n + self.N_TEST, seed=self.cfg.seed + r))
        n = self.cfg.n
        train = [b[:, :n] for b in data.blocks]
        test = [b[:, n:] for b in data.blocks]
        y_train, y_test = y.values[:n], y.values[n:]
        mean_only = float(np.mean((y_test - y_train.mean()) ** 2))
        floor = float(np.mean(truth.noise_outcome[n:] ** 2))
        for method in ("sjive", "jive_predict"):
            checks.check_heldout(res.mses[method], mean_only, floor, f"replicate {r} {method}")
        # The supervised fit (eta 0.5) and the two-step baseline's (eta 1).
        for _, _, cfg, model, report in op.fits:
            checks.check_fit(model, report, train, y_train)
            method = "sjive" if cfg.eta < 1.0 else "jive_predict"
            mse_ind = float(np.mean((y_test - checks.closed_form_prediction(model, test)) ** 2))
            checks.check_prediction([res.mses[method]], [mse_ind], mse_ind, f"replicate {r} {method} MSE")


class CvSelect:
    """Hundreds of short compressed fits inside rank and weight selection."""

    name = "cv-select"
    in_children = False
    PROBLEM_SEEDS = (0, 1, 2)
    P, N, X_ERR, Y_ERR = (70, 70), 80, 0.5, 0.1
    GRID = (0.01, 0.5, 0.99)
    calls_per_round = len(PROBLEM_SEEDS)

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed

    def prepare(self) -> None:
        self.problems = [gen.latent_problem(s, self.P, self.N, self.X_ERR, self.Y_ERR)
                         for s in self.PROBLEM_SEEDS]
        self.folds = [gen.base_folds(self.N, s) for s in self.PROBLEM_SEEDS]

    def round(self, r: int, tracer=None) -> list[Op]:
        from sjive.data import MultiSourceDataset, Outcome
        from sjive.selection import CvPlan, select_model

        ops = []
        for j, (base, folds) in enumerate(zip(self.problems, self.folds)):
            prob, perm = gen.shuffled(base, [self.seed, r, j])
            plan = CvPlan(folds=gen.map_folds(folds, perm), seed=self.PROBLEM_SEEDS[j], n=self.N)
            data = MultiSourceDataset.from_arrays(prob.blocks, prob.sample_ids, prob.variable_ids)
            y = Outcome(prob.y)
            with FitLog() as log:
                t0 = time.perf_counter()
                res = select_model(data, y, plan, eta_grid=self.GRID)
                dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.totals["selection.candidates"] += len(res[2].candidates) + len(res[3].candidates)
            ops.append(Op(dt, res, log.fits, (prob, plan)))
        return ops

    def check(self, op: Op) -> None:
        from sjive.selection import IMPROVEMENT_THRESHOLD

        eta, ranks, rank_trace, eta_trace = op.result
        prob, plan = op.inputs
        checks.check_rank_steps(ranks, rank_trace, IMPROVEMENT_THRESHOLD)
        if eta_trace.candidates:  # no weight search when every rank is zero
            checks.check_eta_choice(eta, eta_trace, self.GRID)
        for data, y, cfg, model, report in op.fits:
            checks.check_fit(model, report, *self._fold_data(prob, data, y))
        # Mean-only predictor and noise floor per fold, on the scale of the
        # fold's training moments.
        mean_only, floor = [], []
        everything = np.arange(self.N)
        for test in plan.folds:
            train = np.setdiff1d(everything, test)
            mu, sd = prob.y[train].mean(), prob.y[train].std(ddof=1)
            mean_only.append(np.mean(((prob.y[test] - mu) / sd) ** 2))
            floor.append(np.mean((prob.noise_y[test] / sd) ** 2))
        mean_only, floor = float(np.mean(mean_only)), float(np.mean(floor))
        zero = rank_trace.candidates[0]["mean_mse"]
        checks.check_prediction([zero], [mean_only], mean_only, "all-zero-rank CV MSE")
        best = min(c["mean_mse"] for c in eta_trace.candidates) if eta_trace.candidates else zero
        checks.check_heldout(best, mean_only, floor, "selected model CV")

    @staticmethod
    def _fold_data(prob, data, y):
        """The training data of a fold fit, standardized here from the raw
        columns when the fit saw variables of the raw problem; otherwise
        (a representation this benchmark does not know) the data the fit
        was given."""
        column = {sid: j for j, sid in enumerate(prob.sample_ids)}
        ids = getattr(data, "sample_ids", ())
        shapes = [np.shape(b)[0] for b in getattr(data, "blocks", data)]
        if ids and all(sid in column for sid in ids) and shapes == [b.shape[0] for b in prob.blocks]:
            idx = [column[sid] for sid in ids]
            y_raw = prob.y[idx]
            return ([checks.standardize_rows(b[:, idx])[0] for b in prob.blocks],
                    (y_raw - y_raw.mean()) / y_raw.std(ddof=1))
        return [np.asarray(b) for b in getattr(data, "blocks", data)], np.asarray(getattr(y, "values", y))


class TallCli:
    """The p >> n shape through the command line: CSV in, archive and CSV out."""

    name = "tall-cli"
    in_children = True  # the operations run in child processes
    calls_per_round = 2
    PROBLEM_SEED = 0
    P, N_TRAIN, N_NEW, X_ERR, Y_ERR = (5000, 5000), 100, 300, 0.5, 0.1

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.dir = workdir
        self.in_process = in_process
        self.src = Path.cwd() / "src"
        self.reload_checked = False

    def prepare(self) -> None:
        base = gen.latent_problem(self.PROBLEM_SEED, self.P, self.N_TRAIN + self.N_NEW,
                                  self.X_ERR, self.Y_ERR, quantum=gen.CSV_QUANTUM)
        rng = np.random.default_rng(self.seed)
        # Training and new files list the variables in the same order.
        rows = [rng.permutation(p) for p in self.P]
        self.train = base.columns(rng.permutation(self.N_TRAIN)).rows(rows)
        self.new = base.columns(self.N_TRAIN + rng.permutation(self.N_NEW)).rows(rows)

    def write_inputs(self) -> None:
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.x_paths, self.new_paths = [], []
        for i in range(len(self.P)):
            x, nx = inputs / f"X{i + 1}.csv", inputs / f"new{i + 1}.csv"
            gen.write_csv(x, self.train.blocks[i], self.train.variable_ids[i], self.train.sample_ids)
            gen.write_csv(nx, self.new.blocks[i], self.new.variable_ids[i], self.new.sample_ids)
            self.x_paths.append(str(x))
            self.new_paths.append(str(nx))
        self.y_path = str(inputs / "y.csv")
        gen.write_csv(self.y_path, self.train.y[None, :], ["y"], self.train.sample_ids)

    def _argv(self, out: Path):
        fit = ["fit", "--ranks", "1,1,1", "--out", str(out / "fit"), "--y", self.y_path]
        for x in self.x_paths:
            fit += ["--x", x]
        pred = ["predict", "--model", str(out / "fit" / "model.zip"), "--out", str(out / "predict")]
        for x in self.new_paths:
            pred += ["--x", x]
        return fit, pred

    def round(self, r: int, tracer=None) -> list[Op]:
        out = self.dir / f"round{r}" / ("traced" if tracer else "plain")
        fit_argv, pred_argv = self._argv(out)
        times = []
        for label, argv in (("cli.fit", fit_argv), ("cli.predict", pred_argv)):
            t0 = time.perf_counter()
            if not self.in_process:
                env = dict(os.environ, PYTHONPATH=str(self.src))
                subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=env, check=True,
                               stdout=subprocess.DEVNULL)
            else:
                from sjive.cli import main

                with tracer.span(label) if tracer else contextlib.nullcontext():
                    code = main(argv)
                if code != 0:
                    raise subprocess.CalledProcessError(code, argv)
            times.append(time.perf_counter() - t0)
        print(f"cli fit {times[0]:.3f} s, predict {times[1]:.3f} s", flush=True)
        return [Op(sum(times), out, [])]

    def check(self, op: Op) -> None:
        from sjive.archive import load_model

        out = op.result
        model, report = load_model(out / "fit" / "model.zip")
        blocks, means, sds = zip(*(checks.standardize_rows(b) for b in self.train.blocks))
        mu, sd = self.train.y.mean(), self.train.y.std(ddof=1)
        checks.check_fit(model, report, list(blocks), (self.train.y - mu) / sd)
        with open(out / "predict" / "predictions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if [row[0] for row in rows] != self.new.sample_ids:
            raise checks.CheckFailed("predictions.csv does not list the new samples in order")
        yhat = np.array([float(row[1]) for row in rows])
        new_std = [(b - m[:, None]) / s[:, None] for b, m, s in zip(self.new.blocks, means, sds)]
        independent = checks.closed_form_prediction(model, new_std) * sd + mu
        checks.check_prediction(yhat, independent, sd, "CLI predictions")
        mean_only = float(np.mean((self.new.y - mu) ** 2))
        floor = float(np.mean(self.new.noise_y ** 2))
        checks.check_heldout(float(np.mean((self.new.y - yhat) ** 2)), mean_only, floor, "CLI")
        # Once per run: it repeats the slowest step of predict.
        if not self.reload_checked:
            checks.check_identical(yhat, self.reloaded_prediction(model), "reloaded model.zip predictions")
            self.reload_checked = True

    def reloaded_prediction(self, model) -> np.ndarray:
        from sjive.data import MultiSourceDataset, standardize_with
        from sjive.predict import estimate_scores, predict

        raw = MultiSourceDataset.from_arrays(self.new.blocks, self.new.sample_ids, self.new.variable_ids)
        return predict(model, estimate_scores(model, standardize_with(raw, model.block_scalers)))


WORKLOADS = {w.name: w for w in (SimReplicate, CvSelect, TallCli)}
