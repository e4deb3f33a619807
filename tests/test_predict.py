import numpy as np
import pytest

from oracles import reference_score_alternation
from sjive.core import FitConfig, Ranks, SJiveModel, fit
from sjive.data import OutcomeScaler
from sjive.errors import ShapeError, SJiveError
from sjive.predict import estimate_scores, predict
from sjive.simulate import SimConfig, generate, train_test_split


@pytest.fixture(scope="module")
def noiseless_fit():
    cfg = SimConfig(k=2, p=(25, 20), n=40, rank_joint=1, rank_indiv=(1, 1), seed=41)
    data, y, truth = generate(cfg)
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-12, max_iter=4000)
    model, report = fit(data, y, fc)
    return data, y, model


def test_self_prediction_recovers_training_scores(noiseless_fit):
    data, y, model = noiseless_fit
    est = estimate_scores(model, data)
    assert est.converged
    assert np.abs(est.joint_scores - model.joint_scores).max() < 1e-6
    for got, want in zip(est.indiv_scores, model.indiv_scores):
        assert np.abs(got - want).max() < 1e-6


def test_zero_input_gives_zero_scores(noiseless_fit):
    data, y, model = noiseless_fit
    zeros = [np.zeros_like(b) for b in data.blocks]
    est = estimate_scores(model, zeros)
    assert np.all(est.joint_scores == 0.0)
    for s in est.indiv_scores:
        assert np.all(s == 0.0)


def test_single_duplicated_column(noiseless_fit):
    data, y, model = noiseless_fit
    j = 7
    single = [b[:, [j]].copy() for b in data.blocks]
    est = estimate_scores(model, single)
    assert est.joint_scores[:, 0] == pytest.approx(model.joint_scores[:, j], abs=1e-6)
    for got, want in zip(est.indiv_scores, model.indiv_scores):
        assert got[:, 0] == pytest.approx(want[:, j], abs=1e-6)


def test_prediction_noiseless_heldout():
    cfg = SimConfig(k=2, p=(25, 20), n=60, rank_joint=1, rank_indiv=(1, 1), seed=42)
    data, y, _ = generate(cfg)
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 42)  # 70/30 split
    fc = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-12, max_iter=4000)
    model, _ = fit(tr_x, tr_y, fc)
    est = estimate_scores(model, te_x)
    yhat = predict(model, est, standardized=True)
    assert float(np.mean((te_y.values - yhat) ** 2)) < 1e-3


def test_predict_zero_scores_returns_training_mean(noiseless_fit):
    from dataclasses import replace

    data, y, model = noiseless_fit
    model_scaled = replace(model, outcome_scaler=OutcomeScaler(mean=11.0, sd=2.5))
    zeros = [np.zeros_like(b) for b in data.blocks]
    est = estimate_scores(model_scaled, zeros)
    yhat = predict(model_scaled, est)
    assert yhat == pytest.approx(np.full(data.n, 11.0))


def test_predict_requires_theta(noiseless_fit):
    data, y, model = noiseless_fit
    from dataclasses import replace

    stripped = replace(model, theta_joint=None, theta_indiv=None)
    est = estimate_scores(stripped, data)
    with pytest.raises(SJiveError, match="fit_jive_predict"):
        predict(stripped, est)


def test_variable_mismatch_raises(noiseless_fit):
    data, y, model = noiseless_fit
    wrong = [b[:-1] for b in data.blocks]
    with pytest.raises(ShapeError):
        estimate_scores(model, wrong)


def test_permutation_equivariance(noiseless_fit):
    data, y, model = noiseless_fit
    rng = np.random.default_rng(0)
    perm = rng.permutation(data.n)
    permuted = [b[:, perm] for b in data.blocks]
    base = predict(model, estimate_scores(model, data), standardized=True)
    shuffled = predict(model, estimate_scores(model, permuted), standardized=True)
    assert shuffled == pytest.approx(base[perm], abs=1e-10)


def test_prediction_gauge_invariance(noiseless_fit):
    # Rescaling loadings with scores absorbing must not move predictions.
    data, y, model = noiseless_fit
    from dataclasses import replace

    tampered = replace(
        model,
        joint_loadings=[5.0 * u for u in model.joint_loadings],
        theta_joint=5.0 * model.theta_joint,
        joint_scores=model.joint_scores / 5.0,
    )
    base = predict(model, estimate_scores(model, data), standardized=True)
    moved = predict(tampered, estimate_scores(tampered, data), standardized=True)
    assert moved == pytest.approx(base, abs=1e-8)


def test_score_objective_nonincreasing():
    cfg = SimConfig(k=2, p=(18, 16), n=30, rank_joint=2, rank_indiv=(1, 2),
                    x_err=0.4, y_err=0.3, seed=43)
    data, y, _ = generate(cfg)
    model, _ = fit(data, y, FitConfig(eta=0.5, ranks=Ranks(2, (1, 2))))
    rng = np.random.default_rng(1)
    new = [rng.normal(size=(b.shape[0], 9)) for b in data.blocks]
    U = np.vstack(model.joint_loadings)

    trace = []
    s_joint = np.zeros((2, 9))
    s_ind = [np.zeros((1, 9)), np.zeros((2, 9))]
    pg_joint = np.linalg.pinv(U.T @ U)
    pg = [np.linalg.pinv(w.T @ w) for w in model.indiv_loadings]
    stacked = np.vstack(new)
    offsets = [(0, new[0].shape[0]), (new[0].shape[0], new[0].shape[0] + new[1].shape[0])]
    for _ in range(40):
        R = stacked.copy()
        for (a, b), w, s in zip(offsets, model.indiv_loadings, s_ind):
            R[a:b] -= w @ s
        s_joint = pg_joint @ (U.T @ R)
        for i, (w, u) in enumerate(zip(model.indiv_loadings, model.joint_loadings)):
            s_ind[i] = pg[i] @ (w.T @ (new[i] - u @ s_joint))
        obj = sum(
            float(np.sum((new[i] - model.joint_loadings[i] @ s_joint
                          - model.indiv_loadings[i] @ s_ind[i]) ** 2))
            for i in range(2)
        )
        trace.append(obj)
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs <= 1e-10 * np.maximum(np.asarray(trace[:-1]), 1.0))

    est = estimate_scores(model, new)
    assert est.converged


def _random_model(rng, p, r_joint, r_indiv):
    """A model with Gaussian loadings and outcome coefficients (no fit).
    Individual loadings lean towards the first joint column, so the joint
    and individual score updates interact."""
    joint = [rng.normal(size=(pi, r_joint)) for pi in p]
    lean = [0.8 * u[:, :1] if r_joint else 0.0 for u in joint]
    return SJiveModel(
        joint_loadings=joint,
        joint_scores=np.zeros((r_joint, 1)),
        indiv_loadings=[rng.normal(size=(pi, ri)) + a for pi, ri, a in zip(p, r_indiv, lean)],
        indiv_scores=[np.zeros((ri, 1)) for ri in r_indiv],
        theta_joint=rng.normal(size=r_joint),
        theta_indiv=[rng.normal(size=ri) for ri in r_indiv],
        eta=0.5,
        ranks=Ranks(r_joint, tuple(r_indiv)),
    )


def _agrees_with_alternation(model, new):
    est = estimate_scores(model, new)
    assert est.iterations == 1 and est.converged
    s_joint, s_ind, _, converged = reference_score_alternation(model, new, tol=0.0, max_iter=20000)
    assert converged
    ref = model.theta_joint @ s_joint + sum(t @ s for t, s in zip(model.theta_indiv, s_ind))
    got = predict(model, est, standardized=True)
    assert np.abs(got - ref).max() < 1e-8
    return est


@pytest.mark.parametrize(
    "p, r_joint, r_indiv",
    [
        ((30,), 2, (1,)),
        ((30, 25), 1, (1, 2)),
        ((20, 30, 25), 2, (1, 0, 2)),  # one block without individual structure
        ((20, 15, 25), 0, (1, 2, 1)),  # no joint structure
        ((20, 15), 0, (0, 0)),  # nothing to estimate
    ],
)
def test_single_solve_matches_alternation(p, r_joint, r_indiv):
    rng = np.random.default_rng(sum(p) + r_joint)
    model = _random_model(rng, p, r_joint, r_indiv)
    new = [rng.normal(size=(pi, 7)) for pi in p]
    est = _agrees_with_alternation(model, new)
    assert est.joint_scores.shape == (r_joint, 7)
    assert [s.shape for s in est.indiv_scores] == [(ri, 7) for ri in r_indiv]


def test_single_solve_matches_alternation_rank_deficient_loadings():
    # A zero individual loading column (a degenerate component) and two
    # identical joint columns: Z^T Z is singular and both methods settle on
    # the minimum-norm scores within each group.
    rng = np.random.default_rng(5)
    model = _random_model(rng, (30, 25), 2, (2, 1))
    model.joint_loadings = [np.hstack([u[:, :1], u[:, :1]]) for u in model.joint_loadings]
    model.indiv_loadings[0][:, 1] = 0.0
    new = [rng.normal(size=(pi, 6)) for pi in model.p]
    est = _agrees_with_alternation(model, new)
    assert np.allclose(est.joint_scores[0], est.joint_scores[1], atol=1e-10)
    assert np.all(est.indiv_scores[0][1] == 0.0)
