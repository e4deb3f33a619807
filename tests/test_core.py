import numpy as np
import pytest

import sjive.data
from sjive import core
from sjive.core import FitConfig, Ranks, SJiveModel, fit, objective, rescale_identifiable
from sjive.errors import ConfigError, DegeneracyError, RankError
from sjive.linalg import top_factors, top_svd
from sjive.simulate import SimConfig, generate

from oracles import eq1_objective_scalar, max_principal_angle, reference_unsupervised_decomposition


def _random_model(seed, p=(6, 5), n=8, r_j=2, r_i=(1, 2), eta=0.4):
    rng = np.random.default_rng(seed)
    return SJiveModel(
        joint_loadings=[rng.normal(size=(pi, r_j)) for pi in p],
        joint_scores=rng.normal(size=(r_j, n)),
        indiv_loadings=[rng.normal(size=(pi, ri)) for pi, ri in zip(p, r_i)],
        indiv_scores=[rng.normal(size=(ri, n)) for ri in r_i],
        theta_joint=rng.normal(size=r_j),
        theta_indiv=[rng.normal(size=ri) for ri in r_i],
        eta=eta,
        ranks=Ranks(r_j, r_i),
    )


def test_ranks_validation():
    with pytest.raises(RankError):
        Ranks(-1, (0,))
    r = Ranks(3, (1, 2))
    with pytest.raises(RankError):
        r.validate_for((2, 5), 10)  # joint rank exceeds min p
    with pytest.raises(RankError):
        Ranks(1, (1, 6)).validate_for((5, 5), 10)
    Ranks(2, (2, 2)).validate_for((5, 5), 10)


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(eta=0.0, ranks=Ranks(1, (1,)))
    with pytest.raises(ConfigError):
        FitConfig(eta=1.5, ranks=Ranks(1, (1,)))
    with pytest.raises(ConfigError):
        FitConfig(eta=0.5, ranks=Ranks(1, (1,)), tol=0.0)


def test_objective_zero_for_exact_decomposition():
    cfg = SimConfig(k=2, p=(12, 9), n=15, rank_joint=1, rank_indiv=(1, 1), seed=1)
    data, y, truth = generate(cfg)
    for eta in (0.3, 0.5, 0.9):
        model = SJiveModel(
            joint_loadings=truth.joint_loadings,
            joint_scores=truth.joint_scores,
            indiv_loadings=truth.indiv_loadings,
            indiv_scores=truth.indiv_scores,
            theta_joint=truth.theta_joint,
            theta_indiv=truth.theta_indiv,
            eta=eta,
            ranks=Ranks(1, (1, 1)),
        )
        assert objective(data, y, model) == pytest.approx(0.0, abs=1e-20)


def test_objective_all_zero_model():
    rng = np.random.default_rng(2)
    blocks = [rng.normal(size=(4, 6)), rng.normal(size=(3, 6))]
    y = rng.normal(size=6)
    eta = 0.7
    model = SJiveModel(
        joint_loadings=[np.zeros((4, 1)), np.zeros((3, 1))],
        joint_scores=np.zeros((1, 6)),
        indiv_loadings=[np.zeros((4, 1)), np.zeros((3, 1))],
        indiv_scores=[np.zeros((1, 6)), np.zeros((1, 6))],
        theta_joint=np.zeros(1),
        theta_indiv=[np.zeros(1), np.zeros(1)],
        eta=eta,
        ranks=Ranks(1, (1, 1)),
    )
    expected = eta * sum(np.sum(b * b) for b in blocks) + (1 - eta) * np.sum(y * y)
    assert objective(blocks, y, model) == pytest.approx(expected, rel=1e-14)


def test_objective_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    model = _random_model(3)
    blocks = [rng.normal(size=(6, 8)), rng.normal(size=(5, 8))]
    y = rng.normal(size=8)
    got = objective(blocks, y, model)
    want = eq1_objective_scalar(blocks, y, model)
    assert got == pytest.approx(want, rel=1e-10)


def test_fit_rank_zero_everything():
    rng = np.random.default_rng(4)
    blocks = [rng.normal(size=(5, 7))]
    y = rng.normal(size=7)
    cfg = FitConfig(eta=0.6, ranks=Ranks(0, (0,)))
    model, _ = fit(blocks, y, cfg)
    assert model.joint_scores.shape == (0, 7)
    expected = 0.6 * np.sum(blocks[0] ** 2) + 0.4 * np.sum(y * y)
    assert objective(blocks, y, model) == pytest.approx(expected, rel=1e-14)


def test_fit_initial_sweep_captures_most_signal():
    # The top stacked direction mixes joint and individual signal (the
    # generator's positive loading drafts overlap), so the one-sweep
    # initializer is not exact; it still removes ~98.5% of the objective,
    # measured over seeds 0..7. The fit itself converges to ~0 afterwards.
    # objective_trace[0] is the objective after that first sweep.
    cfg = SimConfig(k=2, p=(20, 15), n=25, rank_joint=1, rank_indiv=(1, 1), seed=5)
    data, y, truth = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    _, report = fit(data, y, fc)
    baseline = 0.5 * sum(np.sum(b * b) for b in data.blocks) + 0.5 * np.sum(y.values**2)
    assert report.objective_trace[0] < 0.05 * baseline


def test_sweep_is_a_pure_map_of_the_individual_parts():
    # The ALS state is the stacked individual parts [W_i; theta2_i] S_i: a
    # sweep leaves its arguments unchanged, its result depends on nothing
    # else, and it reports the residual energy of the factors it returns.
    rng = np.random.default_rng(4)
    offsets = [(0, 5), (5, 9)]
    stacked = rng.normal(size=(10, 7))
    parts = [rng.normal(size=(6, 7)), rng.normal(size=(5, 7))]
    before = [stacked.copy(), *(p.copy() for p in parts)]
    ranks = Ranks(1, (1, 2))
    for factorize in (top_factors, top_svd):
        (L, S_J, F, S), new_parts, obj = core._sweep(stacked, offsets, ranks, parts, factorize)
        assert all(np.array_equal(a, b) for a, b in zip(before, [stacked, *parts]))
        _, again, obj_again = core._sweep(stacked, offsets, ranks, parts, factorize)
        assert obj_again == obj
        assert all(np.array_equal(a, b) for a, b in zip(again, new_parts))
        for f, s, part in zip(F, S, new_parts):
            assert np.array_equal(f @ s, part)
        resid = stacked - L @ S_J
        for (a, b), part in zip(offsets, new_parts):
            resid[a:b] -= part[:-1]
        resid[-1] -= sum(part[-1] for part in new_parts)
        assert obj == pytest.approx(float(np.sum(resid * resid)), rel=1e-14)


def test_fit_eta_one_ignores_outcome():
    rng = np.random.default_rng(6)
    blocks = [rng.normal(size=(6, 9)), rng.normal(size=(4, 9))]
    y1 = rng.normal(size=9)
    y2 = y1 + rng.normal(size=9)
    cfg = FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)))
    m1, _ = fit(blocks, y1, cfg)
    m2, _ = fit(blocks, y2, cfg)
    for a, b in zip(m1.joint_loadings, m2.joint_loadings):
        assert np.array_equal(a, b)
    assert np.array_equal(m1.joint_scores, m2.joint_scores)


@pytest.mark.parametrize("p", [(30, 8), (30, 12, 40)])
def test_fit_compresses_each_tall_block_once(monkeypatch, p):
    # n = 12: blocks with more variables than samples are compressed, one
    # call each; wide and square blocks never, and nothing with compress=False.
    n = 12
    rng = np.random.default_rng(11)
    blocks = [rng.normal(size=(pi, n)) for pi in p]
    y = rng.normal(size=n)
    cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1,) * len(p)), max_iter=5)
    original = sjive.data.compress
    seen = []

    def counting(block):
        seen.append(block.shape)
        return original(block)

    monkeypatch.setattr(sjive.data, "compress", counting)
    fit(blocks, y, cfg)
    assert seen == [(pi, n) for pi in p if pi > n]
    seen.clear()
    fit(blocks, y, cfg, compress=False)
    assert seen == []


def test_fit_eta_one_matches_reference_decomposition():
    cfg = SimConfig(k=2, p=(30, 25), n=35, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.4, y_err=0.2, seed=7)
    data, y, _ = generate(cfg)
    fc = FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)), tol=1e-10, max_iter=2000)
    model, report = fit(data, y, fc)
    U, S_J, W, S, trace = reference_unsupervised_decomposition(
        data.blocks, 1, (1, 1), max_iter=2000, tol=1e-10
    )
    assert report.final_objective == pytest.approx(trace[-1], rel=1e-8, abs=1e-8)
    assert max_principal_angle(model.joint_scores, S_J) < 1e-6


def test_fit_eta_one_decomposition_independent_of_outcome():
    rng = np.random.default_rng(8)
    blocks = [rng.normal(size=(10, 14)), rng.normal(size=(8, 14))]
    fc = FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)), tol=1e-8)
    m1, _ = fit(blocks, rng.normal(size=14), fc)
    m2, _ = fit(blocks, rng.normal(size=14), fc)
    for a, b in zip(m1.joint_loadings, m2.joint_loadings):
        assert np.array_equal(a, b)
    for a, b in zip(m1.indiv_scores, m2.indiv_scores):
        assert np.array_equal(a, b)
    # coefficients do depend on the outcome
    assert not np.array_equal(m1.theta_joint, m2.theta_joint)


def test_fit_noiseless_recovery():
    cfg = SimConfig(k=2, p=(30, 25), n=40, rank_joint=1, rank_indiv=(1, 1), seed=9)
    data, y, truth = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-10, max_iter=3000)
    model, report = fit(data, y, fc)
    j_est = np.vstack(model.joint_structure())
    j_true = truth.stacked_joint()
    assert np.sum((j_est - j_true) ** 2) / np.sum(j_true**2) < 1e-4
    for i in range(2):
        a_est = model.individual_structure()[i]
        a_true = truth.indiv_structure[i]
        assert np.sum((a_est - a_true) ** 2) / np.sum(a_true**2) < 1e-4


def test_fit_trace_nonincreasing_over_seeds():
    for seed in range(1, 21):
        rng = np.random.default_rng(seed)
        k = 2 if seed % 2 else 3
        blocks = [rng.normal(size=(rng.integers(6, 12), 16)) for _ in range(k)]
        y = rng.normal(size=16)
        ranks = Ranks(seed % 3, tuple(rng.integers(0, 3) for _ in range(k)))
        fc = FitConfig(eta=0.25 + 0.5 * (seed % 3) / 2, ranks=ranks, max_iter=60)
        _, report = fit(blocks, y, fc)
        tr = np.asarray(report.objective_trace)
        assert np.all(np.diff(tr) <= 1e-10 * np.maximum(tr[:-1], 1.0))


def test_fit_model_invariants():
    cfg = SimConfig(k=2, p=(15, 12), n=20, rank_joint=1, rank_indiv=(2, 1),
                    x_err=0.3, y_err=0.2, seed=10)
    data, y, _ = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (2, 1)))
    model, _ = fit(data, y, fc)
    assert np.linalg.norm(model.stacked_joint_frame()) == pytest.approx(1.0, abs=1e-8)
    for i in range(2):
        assert np.linalg.norm(model.stacked_indiv_frame(i)) == pytest.approx(1.0, abs=1e-8)
        ortho = model.joint_scores @ model.indiv_scores[i].T
        assert np.abs(ortho).max() < 1e-6


def test_fit_max_iter_flag():
    cfg = SimConfig(k=2, p=(10, 10), n=12, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.5, y_err=0.5, seed=11)
    data, y, _ = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), max_iter=2, tol=1e-16)
    model, report = fit(data, y, fc)
    assert not report.converged
    assert report.iterations == 2
    assert model.joint_scores.shape == (1, 12)


@pytest.mark.parametrize("third, trace, converged", [
    (4.5, [5.0, 4.0], False),  # a rise beyond tol: the risen sweep is dropped
    (4.000001, [5.0, 4.0, 4.000001], True),  # a rise within tol * 4 counts as a stall
])
def test_rising_sweep_is_not_convergence(monkeypatch, third, trace, converged):
    rng = np.random.default_rng(13)
    blocks = [rng.normal(size=(6, 10)), rng.normal(size=(5, 10))]
    y = rng.normal(size=10)
    objectives = iter([5.0, 4.0, third])
    sweeps, built = [], []
    real_sweep, real_build = core._sweep, core._build_model

    def sweep(*args):
        factors, parts, _ = real_sweep(*args)
        sweeps.append(factors)
        return factors, parts, next(objectives)

    def build(factors, *args):
        built.append(factors)
        return real_build(factors, *args)

    monkeypatch.setattr(core, "_sweep", sweep)
    monkeypatch.setattr(core, "_build_model", build)
    _, report = fit(blocks, y, FitConfig(eta=0.5, ranks=Ranks(1, (1, 1))))
    assert report.objective_trace == trace
    assert report.final_objective == trace[-1]
    assert report.converged is converged
    assert len(sweeps) == 3 and len(built) == 1
    assert built[0] is sweeps[len(trace) - 1]


def test_fit_rejects_constant_outcome():
    rng = np.random.default_rng(12)
    blocks = [rng.normal(size=(5, 8))]
    with pytest.raises(DegeneracyError):
        fit(blocks, np.full(8, 3.0), FitConfig(eta=0.5, ranks=Ranks(1, (1,))))


def test_fit_rank_bound_error():
    rng = np.random.default_rng(13)
    blocks = [rng.normal(size=(3, 8))]
    y = rng.normal(size=8)
    with pytest.raises(RankError):
        fit(blocks, y, FitConfig(eta=0.5, ranks=Ranks(4, (1,))))


def test_rescale_identifiable_fixed_point():
    cfg = SimConfig(k=2, p=(8, 7), n=10, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.2, y_err=0.2, seed=14)
    data, y, _ = generate(cfg)
    model, _ = fit(data, y, FitConfig(eta=0.5, ranks=Ranks(1, (1, 1))))
    again = rescale_identifiable(model)
    for a, b in zip(model.joint_loadings, again.joint_loadings):
        assert a == pytest.approx(b, abs=1e-14)
    assert model.joint_scores == pytest.approx(again.joint_scores, abs=1e-14)


def test_rescale_identifiable_gauge_invariance():
    model = _random_model(15)
    scrambled = rescale_identifiable(model)
    tampered = SJiveModel(
        joint_loadings=[3.0 * u for u in scrambled.joint_loadings],
        joint_scores=scrambled.joint_scores / 3.0,
        indiv_loadings=[2.0 * w for w in scrambled.indiv_loadings],
        indiv_scores=[s / 2.0 for s in scrambled.indiv_scores],
        theta_joint=3.0 * scrambled.theta_joint,
        theta_indiv=[2.0 * t for t in scrambled.theta_indiv],
        eta=scrambled.eta,
        ranks=scrambled.ranks,
    )
    restored = rescale_identifiable(tampered)
    for a, b in zip(restored.joint_loadings, scrambled.joint_loadings):
        assert a == pytest.approx(b, abs=1e-12)
    for a, b in zip(restored.indiv_scores, scrambled.indiv_scores):
        assert a == pytest.approx(b, abs=1e-12)
    # fitted values unchanged by any of this
    for a, b in zip(tampered.fitted_blocks(), scrambled.fitted_blocks()):
        assert a == pytest.approx(b, abs=1e-12)


def test_rescale_identifiable_norms():
    model = rescale_identifiable(_random_model(16))
    frame = model.stacked_joint_frame()
    assert np.linalg.norm(frame) == pytest.approx(1.0, abs=1e-10)
    for i in range(model.k):
        assert np.linalg.norm(model.stacked_indiv_frame(i)) == pytest.approx(1.0, abs=1e-10)


def test_rescale_identifiable_flags_zero_block():
    model = _random_model(17)
    model.indiv_loadings[0] = np.zeros_like(model.indiv_loadings[0])
    model.theta_indiv[0] = np.zeros_like(model.theta_indiv[0])
    out = rescale_identifiable(model)
    assert "individual 1" in out.degenerate
    assert np.all(out.indiv_loadings[0] == 0.0)


def test_theorem_individual_row_spaces_independent():
    # With two blocks the stacked individual score rows keep full rank.
    cfg = SimConfig(k=2, p=(20, 20), n=30, rank_joint=1, rank_indiv=(2, 2),
                    x_err=0.3, y_err=0.2, seed=18)
    data, y, _ = generate(cfg)
    model, _ = fit(data, y, FitConfig(eta=0.5, ranks=Ranks(1, (2, 2))))
    stacked = np.vstack(model.indiv_scores)
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert np.sum(sv > 1e-8 * sv[0]) == 4


def test_fit_deterministic():
    cfg = SimConfig(k=2, p=(9, 9), n=12, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.4, y_err=0.3, seed=19)
    data, y, _ = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)))
    m1, r1 = fit(data, y, fc)
    m2, r2 = fit(data, y, fc)
    assert np.array_equal(m1.joint_scores, m2.joint_scores)
    assert r1.objective_trace == r2.objective_trace


@pytest.mark.filterwarnings("ignore:score Gram matrix is singular")
@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_joint_rank_n_leaves_flagged_empty_individual_parts(eta):
    # Rank n reproduces the data, so the individual parts are empty: zero
    # loadings and coefficients, flagged, and zero scores for new samples.
    from sjive.predict import estimate_scores, predict

    rng = np.random.default_rng(19)
    data = [rng.normal(size=(8, 5)), rng.normal(size=(7, 5))]
    y = rng.normal(size=5)
    new = [rng.normal(size=(8, 9)), rng.normal(size=(7, 9))]
    model, _ = fit(data, y, FitConfig(eta=eta, ranks=Ranks(5, (1, 1))))
    joint_only, _ = fit(data, y, FitConfig(eta=eta, ranks=Ranks(5, (0, 0))))
    assert model.degenerate == ("individual 1", "individual 2")
    for w, th, s in zip(model.indiv_loadings, model.theta_indiv, model.indiv_scores):
        assert not w.any() and not th.any() and not s.any()
    est = estimate_scores(model, new)
    assert not any(s.any() for s in est.indiv_scores)
    np.testing.assert_allclose(model.fitted_outcome(), joint_only.fitted_outcome(), atol=1e-12)
    np.testing.assert_allclose(predict(model, est, standardized=True),
                               predict(joint_only, estimate_scores(joint_only, new),
                                       standardized=True), atol=1e-10)


@pytest.mark.filterwarnings("ignore:score Gram matrix is singular")
@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_joint_rank_above_row_rank_is_zeroed_and_flagged(eta, seed):
    # Standardized data has row rank n - 1, so a fifth joint component at
    # n = 5 is rounding error: it is zeroed and flagged, and new samples are
    # predicted as by the joint-rank-4 fit.
    from sjive.data import Outcome, standardize, standardize_with
    from sjive.predict import estimate_scores, predict

    rng = np.random.default_rng(seed)
    data, y = standardize(sjive.data.MultiSourceDataset.from_arrays(
        [rng.normal(size=(8, 5)), rng.normal(size=(7, 5))]), Outcome(rng.normal(size=5)))
    new = standardize_with(sjive.data.MultiSourceDataset.from_arrays(
        [rng.normal(size=(8, 9)), rng.normal(size=(7, 9))]), data.standardization)
    over, _ = fit(data, y, FitConfig(eta=eta, ranks=Ranks(5, (0, 0))))
    exact, _ = fit(data, y, FitConfig(eta=eta, ranks=Ranks(4, (0, 0))))
    assert over.degenerate == ("joint component 5",)
    assert exact.degenerate == ()
    assert not over.joint_scores[4].any() and not over.theta_joint[4]
    assert not any(u[:, 4].any() for u in over.joint_loadings)
    np.testing.assert_allclose(
        predict(over, estimate_scores(over, new), standardized=True),
        predict(exact, estimate_scores(exact, new), standardized=True), rtol=0, atol=1e-10)
