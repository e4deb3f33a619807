from sjive.bench import run_benchmark
from sjive.simulate import SimConfig


def test_run_benchmark_workers_match_serial():
    cfg = SimConfig(k=2, p=(10, 8), n=16, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.3, y_err=0.2, seed=31)
    serial = run_benchmark(cfg, reps=3, methods=("sjive", "concat_pca"), max_iter=200)
    pooled = run_benchmark(cfg, reps=3, methods=("sjive", "concat_pca"), max_iter=200,
                           threads=2)
    assert pooled.methods == serial.methods
    assert [r.rep for r in pooled.replicates] == [0, 1, 2]
    assert [r.mses for r in pooled.replicates] == [r.mses for r in serial.replicates]
