import numpy as np
import pytest

from sjive.core import FitConfig, Ranks, fit
from sjive.errors import ConfigError, RankError
from sjive.simulate import SimConfig, eigen_signal_report, generate, train_test_split


_BASE_CFG = dict(k=1, p=(10,), n=20, rank_joint=1, rank_indiv=(1,))


def test_config_validation():
    for changes in (dict(k=2, rank_indiv=(1, 1)), dict(x_err=1.0), dict(r_prop=0.0),
                    # all ranks zero cannot produce a partly predictable outcome
                    dict(rank_joint=0, rank_indiv=(0,), y_err=0.5)):
        with pytest.raises(ConfigError):
            SimConfig(**{**_BASE_CFG, **changes})
    # A rank error carries the text of Ranks.validate_for, which states the rule.
    for changes in (dict(rank_joint=25), dict(rank_joint=-1),
                    dict(k=2, p=(10, 30), rank_indiv=(1, 25)), dict(n=8, rank_indiv=(9,))):
        kwargs = {**_BASE_CFG, **changes}
        with pytest.raises(RankError) as expected:
            Ranks(kwargs["rank_joint"], kwargs["rank_indiv"]).validate_for(kwargs["p"], kwargs["n"])
        with pytest.raises(ConfigError) as err:
            SimConfig(**kwargs)
        assert str(err.value) == str(expected.value)


def test_noiseless_has_zero_noise():
    cfg = SimConfig(k=2, p=(12, 10), n=15, rank_joint=1, rank_indiv=(1, 1), seed=0)
    data, y, truth = generate(cfg)
    for E in truth.noise_blocks:
        assert np.all(E == 0.0)
    assert np.all(truth.noise_outcome == 0.0)
    # truth decomposes the returned data exactly
    for i in range(2):
        recon = truth.joint_structure[i] + truth.indiv_structure[i]
        assert recon == pytest.approx(data.blocks[i], abs=1e-12)
    yrecon = truth.outcome_joint + truth.outcome_indiv
    assert yrecon == pytest.approx(y.values, abs=1e-12)


def test_decomposition_identity_with_noise():
    cfg = SimConfig(k=2, p=(12, 10), n=15, rank_joint=2, rank_indiv=(1, 2),
                    x_err=0.4, y_err=0.3, seed=1)
    data, y, truth = generate(cfg)
    for i in range(2):
        recon = truth.joint_structure[i] + truth.indiv_structure[i] + truth.noise_blocks[i]
        assert recon == pytest.approx(data.blocks[i], abs=1e-12)
    yrecon = truth.outcome_joint + truth.outcome_indiv + truth.noise_outcome
    assert yrecon == pytest.approx(y.values, abs=1e-12)


def test_scores_orthogonal():
    cfg = SimConfig(k=3, p=(10, 12, 9), n=20, rank_joint=2, rank_indiv=(2, 1, 2),
                    x_err=0.3, y_err=0.2, seed=2)
    _, _, truth = generate(cfg)
    for s in truth.indiv_scores:
        cross = truth.joint_scores @ s.T
        assert np.abs(cross).max() < 1e-10


def test_zero_joint_scores_leave_individual_draws_unprojected():
    # All-zero joint score rows have an empty row space, so the projector is
    # the identity and the individual part is the one a joint rank of 0 gives.
    base = dict(k=2, p=(10, 12), n=12, rank_indiv=(1, 2), x_err=0.2, y_err=0.2, seed=4)
    data, y, truth = generate(SimConfig(**base, rank_joint=1, w_joint=0.0))
    data0, y0, truth0 = generate(SimConfig(**base, rank_joint=0))
    assert not np.any(truth.joint_scores)
    for s, s0, b, b0 in zip(truth.indiv_scores, truth0.indiv_scores, data.blocks, data0.blocks):
        assert s == pytest.approx(s0, rel=1e-14, abs=1e-14)
        assert b == pytest.approx(b0, rel=1e-14, abs=1e-14)
    assert y.values == pytest.approx(y0.values, rel=1e-14, abs=1e-14)


def test_qr_frames_orthonormal():
    cfg = SimConfig(k=2, p=(10, 12), n=20, rank_joint=2, rank_indiv=(2, 1),
                    x_err=0.3, y_err=0.2, seed=3)
    _, _, truth = generate(cfg)
    f = truth.ortho_joint_frame
    assert f.T @ f == pytest.approx(np.eye(f.shape[1]), abs=1e-10)
    for f in truth.ortho_indiv_frames:
        assert f.T @ f == pytest.approx(np.eye(f.shape[1]), abs=1e-10)


def test_unit_frobenius_frames_after_scaling():
    cfg = SimConfig(k=2, p=(10, 12), n=20, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.2, y_err=0.2, seed=4)
    _, _, truth = generate(cfg)
    joint = np.vstack([*truth.joint_loadings, truth.theta_joint[None, :]])
    assert np.linalg.norm(joint) == pytest.approx(1.0, abs=1e-10)
    for W, th in zip(truth.indiv_loadings, truth.theta_indiv):
        frame = np.vstack([W, th[None, :]])
        assert np.linalg.norm(frame) == pytest.approx(1.0, abs=1e-10)


def test_variable_rows_have_unit_variance():
    cfg = SimConfig(k=2, p=(15, 10), n=25, rank_joint=1, rank_indiv=(1, 1),
                    x_err=0.5, y_err=0.3, seed=5)
    data, y, _ = generate(cfg)
    for block in data.blocks:
        assert block.std(axis=1, ddof=1) == pytest.approx(np.ones(block.shape[0]), abs=1e-10)
    assert float(np.std(y.values, ddof=1)) == pytest.approx(1.0, abs=1e-10)


def test_noise_share_near_target():
    # Seeds fixed: the share fluctuates by ~0.01 (signal/noise cross term).
    for seed in (1, 2, 3):
        cfg = SimConfig(k=2, p=(100, 100), n=100, rank_joint=1, rank_indiv=(1, 1),
                        x_err=0.5, y_err=0.1, seed=seed)
        data, _, truth = generate(cfg)
        for i in range(2):
            E = truth.noise_blocks[i]
            X = data.blocks[i]
            ratio = np.sum((E - E.mean()) ** 2) / np.sum((X - X.mean()) ** 2)
            assert ratio == pytest.approx(0.5, abs=0.02)


def test_determinism():
    cfg = SimConfig(k=2, p=(8, 9), n=14, rank_joint=1, rank_indiv=(1, 2),
                    x_err=0.3, y_err=0.2, seed=6)
    d1, y1, t1 = generate(cfg)
    d2, y2, t2 = generate(cfg)
    for a, b in zip(d1.blocks, d2.blocks):
        assert np.array_equal(a, b)
    assert np.array_equal(y1.values, y2.values)
    assert np.array_equal(t1.joint_scores, t2.joint_scores)
    d3, _, _ = generate(SimConfig(k=2, p=(8, 9), n=14, rank_joint=1,
                                  rank_indiv=(1, 2), x_err=0.3, y_err=0.2, seed=7))
    assert not np.array_equal(d1.blocks[0], d3.blocks[0])


def test_r_prop_restricts_predictive_directions():
    # ceil(0.1 * 10) = 1 nonzero draft entry per coefficient vector; the QR
    # step mixes columns, so the effect is visible as a different outcome
    # map, not as exact zeros in the final coefficients.
    base = dict(k=1, p=(30,), n=40, rank_joint=10, rank_indiv=(10,),
                x_err=0.1, y_err=0.1, seed=8)
    cfg_sparse = SimConfig(**base, r_prop=0.1)
    cfg_full = SimConfig(**base, r_prop=1.0)
    assert cfg_sparse._n_predictive(10) == 1
    assert cfg_full._n_predictive(10) == 10
    _, y_sparse, t_sparse = generate(cfg_sparse)
    _, y_full, t_full = generate(cfg_full)
    assert not np.array_equal(t_sparse.theta_joint, t_full.theta_joint)
    # loading drafts precede the coefficient draws in the stream, so the
    # frame columns still span comparable spaces and generation stays valid
    assert np.isfinite(y_sparse.values).all() and np.isfinite(y_full.values).all()


def test_eigen_signal_report_noiseless():
    cfg = SimConfig(k=2, p=(10, 10), n=15, rank_joint=1, rank_indiv=(1, 1), seed=9)
    _, _, truth = generate(cfg)
    sig, noise = eigen_signal_report(truth)
    assert noise == 0.0
    assert sig > 0.0


@pytest.mark.slow
def test_eigen_signal_report_values_match_published_table():
    # n = p = 200, k = 2, equal weights, ranks 1/1/1.
    expected = {0.10: (154.46, 8.85), 0.90: (51.89, 26.37), 0.99: (16.28, 27.54)}
    for x_err, (exp_sig, exp_noise) in expected.items():
        sigs, noises = [], []
        for seed in range(3):
            cfg = SimConfig(k=2, p=(200, 200), n=200, rank_joint=1,
                            rank_indiv=(1, 1), x_err=x_err, y_err=0.10, seed=seed)
            _, _, truth = generate(cfg)
            s, nn = eigen_signal_report(truth)
            sigs.append(s)
            noises.append(nn)
        assert np.mean(sigs) == pytest.approx(exp_sig, rel=0.10)
        assert np.mean(noises) == pytest.approx(exp_noise, rel=0.10)


def test_noiseless_fit_recovers_truth():
    cfg = SimConfig(k=2, p=(20, 18), n=30, rank_joint=1, rank_indiv=(1, 1), seed=10)
    data, y, truth = generate(cfg)
    model, _ = fit(data, y, FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)),
                                      tol=1e-12, max_iter=4000))
    j_est = np.vstack([u @ model.joint_scores for u in model.joint_loadings])
    rel = np.sum((j_est - truth.stacked_joint()) ** 2) / np.sum(truth.stacked_joint() ** 2)
    assert rel < 1e-4


def test_train_test_split():
    cfg = SimConfig(k=2, p=(6, 5), n=10, rank_joint=1, rank_indiv=(1, 1), seed=11)
    data, y, _ = generate(cfg)
    tr_x, tr_y, te_x, te_y = train_test_split(data, y, 7)
    assert tr_x.n == 7 and te_x.n == 3
    assert np.array_equal(tr_x.blocks[0], data.blocks[0][:, :7])
    assert np.array_equal(te_y.values, y.values[7:])
    with pytest.raises(ConfigError):
        train_test_split(data, y, 10)
