import numpy as np
import pytest

from sjive.baselines import baseline_predict, fit_jive_predict, fit_pca_regression
from sjive.core import FitConfig, Ranks, fit
from sjive.data import Outcome
from sjive.errors import ConfigError, RankError
from sjive.metrics import test_mse as mse_of
from sjive.predict import estimate_scores, predict
from sjive.simulate import SimConfig, generate, train_test_split


@pytest.fixture(scope="module")
def noisy_data():
    cfg = SimConfig(k=2, p=(30, 25), n=40, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.4, y_err=0.2, seed=90)
    return generate(cfg)


def test_fit_jive_matches_eta_one_fit(noisy_data):
    # The unsupervised decomposition is the fit at eta = 1 without an outcome.
    data, y, _ = noisy_data
    ranks = Ranks(1, (1, 1))
    cfg = FitConfig(eta=1.0, ranks=ranks, tol=1e-8)
    m_jive, r_jive = fit(data, None, cfg)
    m_full, r_full = fit(data, y, cfg)
    assert abs(r_jive.final_objective - r_full.final_objective) < 1e-10
    for a, b in zip(m_jive.joint_loadings, m_full.joint_loadings):
        assert np.array_equal(a, b)
    assert m_jive.theta_joint is None


def test_fit_jive_orthogonality(noisy_data):
    data, _, _ = noisy_data
    m, _ = fit(data, None, FitConfig(eta=1.0, ranks=Ranks(1, (1, 1))))
    for s in m.indiv_scores:
        assert np.abs(m.joint_scores @ s.T).max() < 1e-6


def test_fit_jive_noiseless_recovery():
    cfg = SimConfig(k=2, p=(20, 18), n=30, rank_joint=1, rank_indiv=(1, 1), seed=91)
    data, _, truth = generate(cfg)
    m, _ = fit(data, None, FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)), tol=1e-12, max_iter=4000))
    j_est = np.vstack([u @ m.joint_scores for u in m.joint_loadings])
    rel = np.sum((j_est - truth.stacked_joint()) ** 2) / np.sum(truth.stacked_joint() ** 2)
    assert rel < 1e-4


def test_jive_predict_exact_linear_outcome():
    cfg = SimConfig(k=2, p=(20, 18), n=30, rank_joint=1, rank_indiv=(1, 1), seed=92)
    data, y, _ = generate(cfg)  # noiseless in X and y
    model, _ = fit_jive_predict(data, y, Ranks(1, (1, 1)),
                                FitConfig(eta=1.0, ranks=Ranks(1, (1, 1)),
                                          tol=1e-12, max_iter=4000))
    yhat = model.fitted_outcome()
    assert mse_of(y.values, yhat) < 1e-8


def test_jive_predict_null_outcome_chance_level():
    # Independent noise outcome: training R^2 stays near ranks/n.
    r2s = []
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        cfg = SimConfig(k=2, p=(25, 25), n=50, rank_joint=1, rank_indiv=(1, 1),
                        x_err=0.3, y_err=0.2, seed=seed)
        data, _, _ = generate(cfg)
        y = Outcome(rng.standard_normal(50))  # unrelated to the blocks
        ystd = Outcome((y.values - y.values.mean()) / y.values.std(ddof=1))
        model, _ = fit_jive_predict(data, ystd, Ranks(1, (1, 1)))
        yhat = model.fitted_outcome()
        r2s.append(1.0 - np.sum((ystd.values - yhat) ** 2) / np.sum(ystd.values**2))
    chance = 3.0 / 50.0
    assert 0.0 <= np.mean(r2s) < 3.0 * chance


def test_concat_pca_matches_supervised_on_joint_only_data():
    cfg = SimConfig(k=2, p=(20, 20), n=60, rank_joint=1, rank_indiv=(0, 0), seed=93)
    data, y, _ = generate(cfg)
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 40)
    bm = fit_pca_regression(tr_x, tr_y, 1)
    mse_pca = mse_of(te_y.values, baseline_predict(bm, te_x))
    model, _ = fit(tr_x, tr_y, FitConfig(eta=0.5, ranks=Ranks(1, (0, 0)),
                                         tol=1e-10, max_iter=2000))
    mse_sj = mse_of(te_y.values, predict(model, estimate_scores(model, te_x),
                                         standardized=True))
    assert abs(mse_pca - mse_sj) < 0.01


def test_individual_pca_worse_than_concatenated():
    cfg = SimConfig(k=2, p=(60, 60), n=80, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.5, y_err=0.05, seed=94)
    data, y, _ = generate(cfg)
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 60)
    bm_cat = fit_pca_regression(tr_x, tr_y, 3)
    bm_blk = fit_pca_regression(tr_x, tr_y, 3, block=1)
    mse_cat = mse_of(te_y.values, baseline_predict(bm_cat, te_x))
    mse_blk = mse_of(te_y.values, baseline_predict(bm_blk, te_x))
    assert mse_blk > mse_cat


def test_pca_rank_zero_is_mean_predictor(noisy_data):
    data, y, _ = noisy_data
    bm = fit_pca_regression(data, y, 0)
    yhat = baseline_predict(bm, data)
    assert np.all(yhat == 0.0)
    assert mse_of(y.values, yhat) == pytest.approx(np.mean(y.values**2))


def test_pca_argument_validation(noisy_data):
    data, y, _ = noisy_data
    for block in (-1, 2):
        with pytest.raises(ConfigError):
            fit_pca_regression(data, y, 1, block=block)
    with pytest.raises(RankError):
        fit_pca_regression(data, y, 100)


def test_pca_training_fit_matches_projection(noisy_data):
    data, y, _ = noisy_data
    bm = fit_pca_regression(data, y, 2)
    yhat_a = bm.coefficients @ bm.scores
    yhat_b = baseline_predict(bm, data)
    assert yhat_a == pytest.approx(yhat_b, abs=1e-10)
