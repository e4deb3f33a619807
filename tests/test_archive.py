import json
import zipfile

import numpy as np
import pytest

from sjive.archive import load_model, load_truth, save_model, save_truth
from sjive.core import FitConfig, Ranks, fit
from sjive.data import standardize
from sjive.errors import ParseError
from sjive.predict import estimate_scores, predict
from sjive.simulate import SimConfig, generate


@pytest.fixture(scope="module")
def fitted():
    cfg = SimConfig(k=2, p=(12, 9), n=20, rank_joint=1, rank_indiv=(1, 2),
                    x_err=0.3, y_err=0.2, seed=60)
    data, y, truth = generate(cfg)
    model, report = fit(data, y, FitConfig(eta=0.4, ranks=Ranks(1, (1, 2))))
    return data, y, truth, model, report


def test_model_roundtrip_bitwise(fitted, tmp_path):
    data, y, _, model, report = fitted
    path = tmp_path / "model.zip"
    save_model(model, path, report)
    loaded, rep = load_model(path)
    assert rep.iterations == report.iterations
    assert rep.final_objective == report.final_objective
    assert rep.objective_trace == report.objective_trace
    for a, b in zip(model.joint_loadings, loaded.joint_loadings):
        assert np.array_equal(a, b)
    assert np.array_equal(model.joint_scores, loaded.joint_scores)
    assert np.array_equal(model.theta_joint, loaded.theta_joint)
    assert loaded.eta == model.eta
    assert loaded.ranks == model.ranks
    assert loaded.sample_ids == model.sample_ids == data.sample_ids
    # predictions are reproduced bit for bit
    est_a = estimate_scores(model, data)
    est_b = estimate_scores(loaded, data)
    assert np.array_equal(predict(model, est_a), predict(loaded, est_b))


def test_model_shares_the_dataset_ids(fitted, tmp_path):
    # A model refers to its dataset's id lists instead of copying them; the
    # archive stores and restores them as before.
    data, _, _, model, report = fitted
    assert model.variable_ids is data.variable_ids
    assert model.sample_ids is data.sample_ids
    path, again = tmp_path / "model.zip", tmp_path / "again.zip"
    save_model(model, path, report)
    loaded, rep = load_model(path)
    assert loaded.variable_ids == data.variable_ids
    assert loaded.sample_ids == data.sample_ids
    save_model(loaded, again, rep)
    assert again.read_bytes() == path.read_bytes()


def test_model_roundtrip_with_standardization(tmp_path):
    rng = np.random.default_rng(61)
    from sjive.data import MultiSourceDataset, Outcome

    raw = MultiSourceDataset.from_arrays([rng.normal(size=(6, 15)) * 2 + 3])
    y_raw = Outcome(rng.normal(size=15) * 4 - 1)
    data, y = standardize(raw, y_raw)
    model, _ = fit(data, y, FitConfig(eta=0.5, ranks=Ranks(1, (1,))))
    path = tmp_path / "model.zip"
    save_model(model, path)
    loaded, rep = load_model(path)
    assert rep is None
    assert loaded.outcome_scaler.mean == model.outcome_scaler.mean
    assert np.array_equal(loaded.block_scalers[0].means, model.block_scalers[0].means)
    assert loaded.variable_ids == model.variable_ids
    est = estimate_scores(loaded, data)
    assert np.array_equal(predict(loaded, est), predict(model, estimate_scores(model, data)))


def test_model_without_theta_roundtrip(fitted, tmp_path):
    data, *_ = fitted
    m, _ = fit(data, None, FitConfig(eta=1.0, ranks=Ranks(1, (1, 1))))
    path = tmp_path / "jive.zip"
    save_model(m, path)
    loaded, _ = load_model(path)
    assert loaded.theta_joint is None
    assert loaded.theta_indiv is None


def test_truth_roundtrip(fitted, tmp_path):
    _, _, truth, _, _ = fitted
    path = tmp_path / "truth.zip"
    save_truth(truth, path)
    loaded = load_truth(path)
    assert np.array_equal(loaded.joint_scores, truth.joint_scores)
    for a, b in zip(loaded.indiv_structure, truth.indiv_structure):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.noise_outcome, truth.noise_outcome)


def test_truth_archive_holds_factors_and_reads_older_products(fitted, tmp_path):
    _, _, truth, _, _ = fitted
    path = tmp_path / "truth.zip"
    save_truth(truth, path)
    with np.load(path) as npz:
        assert not any(name.startswith(("joint_structure", "indiv_structure", "outcome_"))
                       for name in npz.files)
    # Older archives also stored the structures and outcome parts.
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    products = {"outcome_joint": truth.outcome_joint, "outcome_indiv": truth.outcome_indiv}
    for i in range(2):
        products[f"joint_structure_{i + 1}"] = truth.joint_structure[i]
        products[f"indiv_structure_{i + 1}"] = truth.indiv_structure[i]
    old = tmp_path / "old_truth.zip"
    with open(old, "wb") as fh:
        np.savez(fh, **arrays, **products)
    loaded = load_truth(old)
    for name in ("joint_structure", "indiv_structure"):
        for a, b in zip(getattr(loaded, name), getattr(truth, name)):
            assert np.array_equal(a, b)
    assert np.array_equal(loaded.outcome_joint, truth.outcome_joint)
    assert np.array_equal(loaded.outcome_indiv, truth.outcome_indiv)


def test_model_archive_without_sample_ids_loads_none(fitted, tmp_path):
    # Format version 2 archives written before sample ids were stored.
    _, _, _, model, _ = fitted
    path = tmp_path / "model.zip"
    save_model(model, path)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    manifest = json.loads(str(arrays.pop("manifest")))
    del manifest["sample_ids"]
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)), **arrays)
    loaded, _ = load_model(path)
    assert loaded.sample_ids is None
    assert np.array_equal(loaded.joint_scores, model.joint_scores)


def test_wrong_kind_rejected(fitted, tmp_path):
    _, _, truth, model, _ = fitted
    mp, tp = tmp_path / "m.zip", tmp_path / "t.zip"
    save_model(model, mp)
    save_truth(truth, tp)
    with pytest.raises(ParseError):
        load_model(tp)
    with pytest.raises(ParseError):
        load_truth(mp)


def test_zero_rank_model_roundtrip(tmp_path):
    rng = np.random.default_rng(62)
    blocks = [rng.normal(size=(5, 10))]
    y = rng.normal(size=10)
    model, _ = fit(blocks, y, FitConfig(eta=0.5, ranks=Ranks(0, (0,))))
    path = tmp_path / "zero.zip"
    save_model(model, path)
    loaded, _ = load_model(path)
    assert loaded.joint_scores.shape == (0, 10)
    assert loaded.theta_joint.size == 0


def test_archive_written_at_exact_path(fitted, tmp_path):
    _, _, truth, model, report = fitted
    for name in ("model.zip", "model", "model.npz.bak"):
        path = tmp_path / name
        save_model(model, str(path), report)
        assert path.is_file()
        loaded, _ = load_model(str(path))
        assert np.array_equal(loaded.joint_scores, model.joint_scores)
    save_truth(truth, tmp_path / "truth.zip")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model", "model.npz.bak", "model.zip", "truth.zip"]


def test_version_one_archive_rejected(tmp_path):
    # Format version 1 stored CSV matrices and a manifest.json in a zip.
    path = tmp_path / "old.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("matrices/joint_scores.csv", "1.0,2.0\n")
        zf.writestr("manifest.json", json.dumps({"format_version": 1, "kind": "model"}))
    with pytest.raises(ParseError, match="version 1.*refit"):
        load_model(path)
    with pytest.raises(ParseError, match="version 1"):
        load_truth(path)


@pytest.mark.parametrize("content", [b"id,s1\nv1,1.0\n", b"", b"PK\x03\x04broken"])
def test_non_archive_rejected(tmp_path, content):
    path = tmp_path / "x.bin"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="not a model archive"):
        load_model(path)
