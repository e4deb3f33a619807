import os
import subprocess
import sys
from pathlib import Path

import pytest

import sjive
from sjive.bench import run_benchmark, run_replicate
from sjive.errors import ConfigError
from sjive.simulate import SimConfig


def test_run_replicate_rejects_n_test_below_one():
    cfg = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1), seed=31)
    for n_test in (0, -3):
        with pytest.raises(ConfigError) as info:
            run_replicate(cfg, 0, n_test=n_test)
        assert str(info.value) == f"n_test must be at least 1, got {n_test}"


def test_run_benchmark_workers_match_serial():
    cfg = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=31)
    serial = run_benchmark(cfg, reps=3, max_iter=200)
    pooled = run_benchmark(cfg, reps=3, max_iter=200, threads=2)
    assert pooled.methods == serial.methods
    assert [r.rep for r in pooled.replicates] == [0, 1, 2]
    assert [r.mses for r in pooled.replicates] == [r.mses for r in serial.replicates]


def test_run_benchmark_counts_unconverged_fits():
    cfg = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=31)
    with pytest.warns(RuntimeWarning, match="4 of 4 replicate fits stopped at max_iter"):
        result = run_benchmark(cfg, reps=2, max_iter=1)
    assert [r.unconverged for r in result.replicates] == [2, 2]


_UNGUARDED_SCRIPT = """\
from sjive.bench import run_benchmark
from sjive.simulate import SimConfig

cfg = SimConfig(k=2, p=(20, 20), n=20, rank_joint=1, rank_indiv=(1, 1),
                x_err=0.3, y_err=0.2, seed=5)
result = run_benchmark(cfg, reps=2, max_iter=50, threads=2)
print(result.mean_mses())
"""


def test_unguarded_script_names_the_missing_main_guard(tmp_path):
    # Spawned workers re-import the main module, so a script without the
    # __main__ guard starts the pool again inside each worker, which dies.
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT, encoding="utf-8")
    src = str(Path(sjive.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "BrokenProcessPool" in out.stderr
    assert "without an 'if __name__ == \"__main__\":' guard" in out.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # fold fits stopping at max_iter
def test_run_replicate_cv_passes_convergence_settings_to_fold_fits(fit_configs):
    from sjive.bench import CV_ETA_GRID, run_replicate

    cfg = SimConfig(k=2, p=(10, 8), n=20, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=31)
    run_replicate(cfg, 0, eta="cv", max_iter=7, tol=1e-3)
    assert len(fit_configs) == 5 * len(CV_ETA_GRID) + 2
    assert {(c.max_iter, c.tol) for c in fit_configs} == {(7, 1e-3)}
