"""Benchmark of the sjive package: one workload per run, outputs checked.

    python3 perfbench/run.py --workload sim-replicate --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run sets up several times and reports the median as ``setup_s``, then
repeats whole rounds of the workload's operations until ``--seconds`` of
operation time have passed, checks every output, and prints one JSON object
as the last line of standard output. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one round untraced and the same round traced,
and reports the per-layer metrics from the traced one. A failed check
prints the result with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import os

# BLAS runs on one thread in this process and every process it starts: on a
# 2-CPU machine two OpenBLAS threads were slower than one on a 401 x 200 SVD.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_TRIALS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sjive.cli; "
                "print(time.perf_counter() - t)")
OUT_DIR = ".perfbench"


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def import_probe(src: Path) -> float:
    """Import time of ``sjive.cli`` in a fresh interpreter, as it reports it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup(workload, src: Path):
    """Set up SETUP_TRIALS times, each a fresh interpreter importing the
    package plus the workload's inputs; returns the median set-up and
    import times."""
    totals, imports = [], []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        imports.append(import_probe(src))
        workload.prepare()
        totals.append(time.perf_counter() - t0)
    return statistics.median(totals), statistics.median(imports)


def measured_rounds(workload, seconds: float):
    """Whole rounds until ``seconds`` have passed in the operations; returns
    the rounds that succeeded and the number of rounds that raised."""
    rounds, failed, spent, r = [], 0, 0.0, 0
    while r == 0 or spent < seconds:
        t0 = time.perf_counter()
        try:
            rounds.append(workload.round(r))
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc()
            failed += 1
        spent += time.perf_counter() - t0
        r += 1
    return rounds, failed


def per_layer(tracer, import_s: float, overhead_s: float) -> dict:
    t = tracer
    fit_s, fit_iters = t.seconds("core.fit"), t.totals["core.fit.iters"]
    values = {
        "core.fit.calls": (t.calls("core.fit"), "count"),
        "core.fit.s": (fit_s, "s"),
        "core.fit.iters": (fit_iters, "count"),
        "core.fit.ms_per_iter": (1e3 * fit_s / fit_iters if fit_iters else 0.0, "ms"),
        "core.fit.unconverged": (t.totals["core.fit.unconverged"], "count"),
        "numpy.svd.calls": (t.calls("numpy.svd"), "count"),
        "numpy.svd.s": (t.seconds("numpy.svd"), "s"),
        "numpy.svd.gflop": (t.totals["numpy.svd.gflop"], "gflop"),
        "numpy.eigh.calls": (t.calls("numpy.eigh"), "count"),
        "numpy.eigh.s": (t.seconds("numpy.eigh"), "s"),
        "numpy.pinv.s": (t.seconds("numpy.pinv"), "s"),
        "predict.estimate_scores.calls": (t.calls("predict.estimate_scores"), "count"),
        "predict.estimate_scores.s": (t.seconds("predict.estimate_scores"), "s"),
        "predict.estimate_scores.iters": (t.totals["predict.estimate_scores.iters"], "count"),
        "data.load_csv.s": (t.seconds("data.load_csv"), "s"),
        "data.load_csv.mb": (t.totals["data.load_csv.mb"], "MB"),
        "data.standardize.s": (t.seconds("data.standardize"), "s"),
        "data.compress.calls": (t.calls("data.compress"), "count"),
        "data.compress.s": (t.seconds("data.compress"), "s"),
        "archive.save_model.s": (t.seconds("archive.save_model"), "s"),
        "archive.load_model.s": (t.seconds("archive.load_model"), "s"),
        "archive.model_kb": (t.totals["archive.model_kb"], "kB"),
        "selection.cv_fold_mses.calls": (t.calls("selection.cv_fold_mses"), "count"),
        "selection.cv_fold_mses.s": (t.seconds("selection.cv_fold_mses"), "s"),
        "selection.candidates": (t.totals["selection.candidates"], "count"),
        "baselines.s": (t.seconds("baselines"), "s"),
        "simulate.generate.s": (t.seconds("simulate.generate"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.fit.s": (t.seconds("cli.fit"), "s"),
        "cli.predict.s": (t.seconds("cli.predict"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "sjive" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'sjive'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)

    from checks import CheckFailed
    from tracing import Tracer
    from workloads import WORKLOADS

    # One directory per workload and mode, emptied by the next such run, so
    # the CSV inputs of tall-cli (55 MB a run) do not pile up.
    workdir = root / OUT_DIR / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, in_process=bool(args.trace))
    print("environment " + json.dumps(environment()), flush=True)

    setup_s, import_s = setup(workload, src)
    if hasattr(workload, "write_inputs"):
        t0 = time.perf_counter()
        workload.write_inputs()
        print(f"inputs written in {time.perf_counter() - t0:.3f} s", flush=True)

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    try:
        if args.trace:
            t0 = time.perf_counter()
            plain = workload.round(0)
            untraced = time.perf_counter() - t0
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = workload.round(0, tracer)
                overhead = time.perf_counter() - t0 - untraced
            finally:
                tracer.uninstall()
            tracer.write(workdir / "spans.jsonl")
            rounds = [plain, traced]
            result["metrics"] = per_layer(tracer, import_s, overhead)
        else:
            rounds, failed_rounds = measured_rounds(workload, args.seconds)
            result["failed"] = failed_rounds * workload.calls_per_round
            ops = [op for r in rounds for op in r]
            if not ops:
                print("error: every round failed", file=sys.stderr)
                return 1
            who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
            result["metrics"] = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_s": {"value": sum(op.seconds for op in ops) / len(ops), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            }
        result["attempted"] = len(rounds) * workload.calls_per_round + result["failed"]
        for r, round_ops in enumerate(rounds):
            print(f"round {r}: " + ", ".join(f"{op.seconds:.3f} s" for op in round_ops), flush=True)
        for op in (op for round_ops in rounds for op in round_ops):
            workload.check(op)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        status = 1
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
