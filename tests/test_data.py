import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjive.core import FitConfig, Ranks, fit, objective
from sjive.data import (
    MultiSourceDataset,
    Outcome,
    compress,
    decompress_loadings,
    destandardize_outcome,
    load_csv,
    standardize,
    standardize_outcome_with,
    standardize_with,
    write_csv,
)
from oracles import reference_load_csv
from sjive.errors import DegeneracyError, ParseError, ShapeError


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(
        tmp_path,
        "x.csv",
        "id,s1,s2,s3,s4\nv1,1,2,3,4\nv2,5,6,7,8\nv3,9,10,11,12\n",
    )
    m = load_csv(path)
    assert m.values.shape == (3, 4)
    assert m.row_ids == ["v1", "v2", "v3"]
    assert m.col_ids == ["s1", "s2", "s3", "s4"]
    assert m.values[1, 2] == 7.0


def test_load_csv_samples_in_rows(tmp_path):
    path = _write(
        tmp_path,
        "x.csv",
        "id,v1,v2,v3\ns1,1,5,9\ns2,2,6,10\ns3,3,7,11\ns4,4,8,12\n",
    )
    m = load_csv(path, samples_in_rows=True)
    assert m.values.shape == (3, 4)
    assert m.row_ids == ["v1", "v2", "v3"]
    assert m.values[0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_load_csv_na_cell(tmp_path):
    path = _write(tmp_path, "x.csv", "id,s1,s2\nv1,1,NA\n")
    with pytest.raises(ParseError, match="row 'v1', column 's2'"):
        load_csv(path)


def test_load_csv_nan_text_rejected(tmp_path):
    path = _write(tmp_path, "x.csv", "id,s1,s2\nv1,1,nan\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_csv(path)


def test_load_csv_ragged(tmp_path):
    path = _write(tmp_path, "x.csv", "id,s1,s2\nv1,1\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path)


def test_load_csv_duplicate_ids(tmp_path):
    path = _write(tmp_path, "x.csv", "id,s1,s1\nv1,1,2\n")
    with pytest.raises(ParseError, match="duplicate column id 's1'"):
        load_csv(path)
    path = _write(tmp_path, "y.csv", "id,s1,s2\nv1,1,2\nv1,3,4\n")
    with pytest.raises(ParseError, match="duplicate row id 'v1'"):
        load_csv(path)


def test_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.normal(size=(3, 5))
    path = tmp_path / "m.csv"
    write_csv(path, vals, [f"v{i}" for i in range(3)], [f"s{j}" for j in range(5)])
    m = load_csv(path)
    assert np.array_equal(m.values, vals)


# Quoted ids (one holding a comma), padded cells, exponents, signed zeros
# and a blank line between rows.
_AWKWARD = (
    'id,"s,1", s2 ,s3,s4\n'
    '"v,1", 1 ,1e3,-0,+2\n'
    '\n'
    'v2,\t-1.5e-3 ,1E3,+12.,3e0\n'
    '" v3 ",0.1,.5,5.,-0.0\n'
)
# CRLF line ends, blank lines before the header and between rows, padded
# ids and cells, and no line end after the last row.
_BLANK_LINES = "\r\nid, s1 ,s2\r\n\r\n v1 ,1,-0\r\nv2,\t3 , 4e-3"


@pytest.mark.parametrize("samples_in_rows", [False, True])
def test_load_csv_matches_per_cell_reference(tmp_path, samples_in_rows):
    for text in (_AWKWARD, _BLANK_LINES):
        path = _write(tmp_path, "x.csv", text)
        values, row_ids, col_ids = reference_load_csv(path)
        m = load_csv(path, samples_in_rows=samples_in_rows)
        if samples_in_rows:
            values, row_ids, col_ids = values.T, col_ids, row_ids
        assert m.values.flags.c_contiguous
        assert m.values.tobytes() == np.ascontiguousarray(values).tobytes()  # bitwise: -0.0 stays
        assert m.row_ids == row_ids and m.col_ids == col_ids
    assert load_csv(_write(tmp_path, "a.csv", _AWKWARD)).values[1].tolist() == [
        -1.5e-3, 1000.0, 12.0, 3.0]
    m = load_csv(_write(tmp_path, "b.csv", _BLANK_LINES))
    assert m.values.tobytes() == np.array([[1.0, -0.0], [3.0, 4e-3]]).tobytes()
    assert m.row_ids == ["v1", "v2"] and m.col_ids == ["s1", "s2"]


def test_load_csv_random_values_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(40, 30)) * 10.0 ** rng.integers(-300, 300, size=(40, 1))
    path = tmp_path / "m.csv"
    write_csv(path, vals, [f"v{i}" for i in range(40)], [f"s{j}" for j in range(30)])
    assert load_csv(path).values.tobytes() == reference_load_csv(path)[0].tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("v1,1,2\nv2,3, NA \n", "non-numeric value 'NA' at row 'v2', column 's2'"),
        ("v1,1,2\nv2,,4\n", "non-numeric value '' at row 'v2', column 's1'"),
        ("v1,nan,x\n", "non-finite value 'nan' at row 'v1', column 's1'"),
        ("v1,1, -Infinity\n", "non-finite value '-Infinity' at row 'v1', column 's2'"),
        ("v1,1,1e999\n", "non-finite value '1e999' at row 'v1', column 's2'"),
        ("v1,1,2\n v2 ,1\n", "row 3 ('v2') has 1 values, expected 2"),
        ("v1,1,2,3\n", "row 2 ('v1') has 3 values, expected 2"),
        # float() reads these three; np.loadtxt, R and pandas do not.
        ("v1,1,2\nv2,3,1_000\n", "non-numeric value '1_000' at row 'v2', column 's2'"),
        ("v1,\u0661\u0662,2\n", "non-numeric value '\u0661\u0662' at row 'v1', column 's1'"),
        ("v1,1,\uff13\n", "non-numeric value '\uff13' at row 'v1', column 's2'"),
    ],
)
def test_load_csv_error_messages(tmp_path, body, message):
    path = _write(tmp_path, "x.csv", "id,s1,s2\n" + body)
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_load_csv_header_errors(tmp_path):
    # A header-only file reaches np.loadtxt's empty-input warning, which
    # must not escape.
    for text in ("", "id,s1\n", "\n\nid,s1\n\n", "id,s1,s2\r\n\r\n"):
        path = _write(tmp_path, "x.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as info:
                load_csv(path)
        assert str(info.value) == f"{path}: expected a header row and at least one data row"
    path = _write(tmp_path, "x.csv", "id\nv1\n")
    with pytest.raises(ParseError, match="header must contain at least one sample id"):
        load_csv(path)


def test_load_csv_overlong_field_left_to_csv(tmp_path):
    # The header is split by csv.reader, whose field size limit stands; a
    # body id of any length goes to np.loadtxt and loads.
    long_id = "v" * (csv.field_size_limit() + 1)
    path = _write(tmp_path, "x.csv", f"id,s1\n{long_id},1\n")
    assert load_csv(path).row_ids == [long_id]
    path = _write(tmp_path, "y.csv", f"id,{long_id}\nv1,1\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert str(info.value).startswith(f"{path}: field larger than field limit")


def test_load_csv_not_utf8(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes("id,s1,s2\nv\u00e9,1,2\n".encode("latin-1"))
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid continuation byte)"
    path.write_bytes("id,s\u00e9,s2\nv1,1,2\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_csv(path)


_REPR_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_GOOD_CELLS = st.one_of(
    _REPR_FLOATS,
    st.sampled_from(["-0.0", "0.0", "5e-324", "-2.225073858507201e-308", "1e300",
                     "-1e-300", "1.7976931348623157e+308"]),
    st.tuples(_PAD, _REPR_FLOATS, _PAD).map("".join),
)
# Non-numeric or non-finite cells, and three that float() reads but
# load_csv rejects: a digit separator and non-ASCII digits.
_BAD_CELLS = st.sampled_from(["nan", "-inf", "inf", "1e999", "", "NA", "#1",
                              "1_000", "\u0661\u0662", "\uff13"])


@st.composite
def _csv_texts(draw):
    """A CSV table: plain numeric tables, and tables with awkward cells,
    quoted ids, empty and whitespace-only lines, trailing commas and
    ragged rows."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    awkward = draw(st.booleans())

    def rare():
        return awkward and draw(st.integers(0, 19)) == 0

    def cell():
        if not awkward:
            return draw(st.one_of(_REPR_FLOATS, st.sampled_from(["-0.0", "5e-324"])))
        return draw(_BAD_CELLS if rare() else _GOOD_CELLS)

    def line(rid, cells):
        if rare():
            cells = cells + [""]  # trailing comma
        if rare():
            cells = cells[:-1]  # ragged
        return ",".join([rid, *cells])

    lines = [line("id", [draw(st.sampled_from([f"s{j}", f" s{j} "])) for j in range(n_cols)])]
    for i in range(n_rows):
        rid = draw(st.sampled_from([f"v{i}", f" v{i}\t", f'"v,{i}"'] if awkward else [f"v{i}"]))
        lines.append(line(rid, [cell() for _ in range(n_cols)]))
    if awkward:
        for _ in range(draw(st.integers(0, 2))):
            blank = draw(st.sampled_from(["", "", " ", "\t"]))
            lines.insert(draw(st.integers(0, len(lines))), blank)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def _reference_or_none(path):
    """reference_load_csv's table, or None where it fails or gives no
    valid table: ragged or header-only, no sample id, a non-finite value."""
    try:
        values, row_ids, col_ids = reference_load_csv(path)
    except (ValueError, IndexError):
        return None
    if values.ndim != 2 or not col_ids or values.shape[1] != len(col_ids):
        return None
    return (values, row_ids, col_ids) if np.isfinite(values).all() else None


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts(), samples_in_rows=st.booleans())
def test_load_csv_matches_reference_or_streamed_error(tmp_path_factory, text, samples_in_rows):
    # A table loads bit for bit as the per-cell float() reference reads it.
    # ParseError comes exactly where the reference fails or a cell holds a
    # digit separator or non-ASCII digits (the table's only non-ASCII text).
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_or_none(path)
    if expected is None or "_" in text or not text.isascii():
        with pytest.raises(ParseError):
            load_csv(path, samples_in_rows=samples_in_rows)
        return
    m = load_csv(path, samples_in_rows=samples_in_rows)
    values, row_ids, col_ids = expected
    if samples_in_rows:
        values, row_ids, col_ids = values.T, col_ids, row_ids
    assert m.values.shape == values.shape
    assert m.values.tobytes() == np.ascontiguousarray(values).tobytes()
    assert m.row_ids == row_ids and m.col_ids == col_ids


def test_dataset_validation():
    with pytest.raises(ShapeError):
        MultiSourceDataset.from_arrays([np.ones((2, 3)), np.ones((2, 4))])


def test_standardize_simple_row():
    data = MultiSourceDataset.from_arrays([np.array([[1.0, 2.0, 3.0]])])
    y = Outcome(np.array([2.0, 4.0, 6.0]))
    std, ystd = standardize(data, y)
    assert std.blocks[0][0] == pytest.approx([-1.0, 0.0, 1.0])
    assert ystd.values == pytest.approx([-1.0, 0.0, 1.0])
    assert ystd.standardization.mean == pytest.approx(4.0)
    assert ystd.standardization.sd == pytest.approx(2.0)


def test_standardize_constant_row_policies():
    block = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]])
    data = MultiSourceDataset.from_arrays([block])
    with pytest.raises(DegeneracyError, match="b1_v2"):
        standardize(data)
    std, _ = standardize(data, policy="drop")
    assert std.blocks[0].shape == (1, 4)
    assert std.standardization[0].dropped_ids == ["b1_v2"]
    assert std.variable_ids[0] == ["b1_v1"]


def test_standardize_moments_match_scalar_loop():
    rng = np.random.default_rng(21)
    block = rng.normal(size=(5, 20)) * 3.0 + 1.5
    data = MultiSourceDataset.from_arrays([block])
    std, _ = standardize(data)
    for row in std.blocks[0]:
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / (len(row) - 1)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(1.0, abs=1e-8)


def test_standardize_inversion():
    rng = np.random.default_rng(22)
    block = rng.normal(size=(4, 12)) * 2.0 - 7.0
    data = MultiSourceDataset.from_arrays([block])
    y = Outcome(rng.normal(size=12) * 5.0 + 3.0)
    std, ystd = standardize(data, y)
    sc = std.standardization[0]
    back = std.blocks[0] * sc.sds[:, None] + sc.means[:, None]
    assert back == pytest.approx(block, abs=1e-10)
    yback = destandardize_outcome(ystd.values, ystd.standardization)
    assert yback == pytest.approx(y.values, abs=1e-10)


def test_standardize_with_reuses_training_moments():
    rng = np.random.default_rng(23)
    train = MultiSourceDataset.from_arrays([rng.normal(size=(3, 10)) * 2 + 1])
    test = MultiSourceDataset.from_arrays([rng.normal(size=(3, 4)) * 2 + 1])
    std_train, _ = standardize(train)
    std_test = standardize_with(test, std_train.standardization)
    sc = std_train.standardization[0]
    expected = (test.blocks[0] - sc.means[:, None]) / sc.sds[:, None]
    assert std_test.blocks[0] == pytest.approx(expected)


def test_standardize_with_drops_same_variables():
    block = np.vstack([np.arange(6.0), np.full(6, 2.0), np.arange(6.0) ** 2])
    data = MultiSourceDataset.from_arrays([block])
    std, _ = standardize(data, policy="drop")
    new = MultiSourceDataset.from_arrays([np.vstack([np.arange(3.0), np.ones(3), np.arange(3.0) + 2])])
    out = standardize_with(new, std.standardization)
    assert out.blocks[0].shape == (2, 3)


def test_outcome_standardize_with():
    sc_data = MultiSourceDataset.from_arrays([np.array([[0.0, 1.0, 2.0]])])
    _, ystd = standardize(sc_data, Outcome(np.array([1.0, 3.0, 5.0])))
    vals = standardize_outcome_with(np.array([3.0, 7.0]), ystd.standardization)
    assert vals == pytest.approx([0.0, 2.0])


def test_compress_roundtrip_tall_and_wide():
    rng = np.random.default_rng(31)
    for shape in [(50, 8), (6, 9)]:
        block = rng.normal(size=shape)
        cb = compress(block)
        recon = cb.back_map @ cb.scores
        rel = np.linalg.norm(recon - block) / np.linalg.norm(block)
        assert rel < 1e-8
        assert cb.back_map.T @ cb.back_map == pytest.approx(
            np.eye(cb.back_map.shape[1]), abs=1e-10
        )


def test_compress_preserves_column_geometry():
    rng = np.random.default_rng(32)
    block = rng.normal(size=(500, 20))
    cb = compress(block)
    for a in range(20):
        for b in range(a + 1, 20):
            d_orig = np.linalg.norm(block[:, a] - block[:, b])
            d_comp = np.linalg.norm(cb.scores[:, a] - cb.scores[:, b])
            assert d_comp == pytest.approx(d_orig, abs=1e-8)
    gram_orig = block.T @ block
    gram_comp = cb.scores.T @ cb.scores
    assert gram_comp == pytest.approx(gram_orig, abs=1e-6)


def test_compress_orthogonal_square_block():
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
    cb = compress(q)
    assert cb.scores.T @ cb.scores == pytest.approx(q.T @ q, abs=1e-10)


def test_compress_rank_one_block():
    u = np.arange(1.0, 9.0)
    v = np.array([2.0, -1.0, 0.5])
    block = np.outer(u, v)
    cb = compress(block)
    sv = np.linalg.svd(block, compute_uv=False)[0]
    comp_sv = np.linalg.svd(cb.scores, compute_uv=False)
    assert comp_sv[0] == pytest.approx(sv, rel=1e-12)
    assert np.all(comp_sv[1:] < 1e-10 * sv)


def test_decompress_identity_back_map():
    cb = compress(np.eye(4))
    loadings = np.arange(8.0).reshape(4, 2)
    out = decompress_loadings(cb, cb.back_map.T @ loadings)
    assert out == pytest.approx(loadings)


def test_decompress_preserves_orthonormal_loadings():
    rng = np.random.default_rng(34)
    block = rng.normal(size=(40, 10))
    cb = compress(block)
    q, _ = np.linalg.qr(rng.normal(size=(10, 3)))
    out = decompress_loadings(cb, q)
    assert out.T @ out == pytest.approx(np.eye(3), abs=1e-10)


def test_decompress_shape_error():
    cb = compress(np.eye(4))
    with pytest.raises(ShapeError):
        decompress_loadings(cb, np.ones((3, 2)))


def test_fit_on_compressed_matches_raw():
    # Tall blocks fitted via their score representation give the same
    # objective and joint approximation as the raw fit. Square blocks are
    # never compressed, so there the two fits differ only in the kernel
    # (top_pair updates against the full SVD).
    rng = np.random.default_rng(35)
    n = 24
    for p in (60, n):
        blocks = [rng.normal(size=(p, n)), rng.normal(size=(p, n))]
        y = rng.normal(size=n)
        data = MultiSourceDataset.from_arrays(blocks)
        cfg = FitConfig(eta=0.5, ranks=Ranks(1, (1, 1)), tol=1e-9, max_iter=400)
        m_raw, r_raw = fit(data, y, cfg, compress=False)
        m_cmp, r_cmp = fit(data, y, cfg, compress=True)
        assert r_cmp.final_objective == pytest.approx(r_raw.final_objective, rel=1e-6)
        for i in range(2):
            j_raw = m_raw.joint_loadings[i] @ m_raw.joint_scores
            j_cmp = m_cmp.joint_loadings[i] @ m_cmp.joint_scores
            assert np.linalg.norm(j_raw - j_cmp) < 1e-6 * max(1.0, np.linalg.norm(j_raw))
        assert objective(data, y, m_cmp) == pytest.approx(objective(data, y, m_raw), rel=1e-6)
