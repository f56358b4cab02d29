import csv
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import shufflegrad
from shufflegrad import ingest
from shufflegrad.ingest import (
    DataFormatError,
    RegressionDataset,
    dataset_from_config,
    load_csv,
    preprocess,
    synthesize,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _noise(seed, size):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x1E,)))
    return rng.standard_normal(size)


class TestLoadCsv:
    def test_median_fill_and_target_noise(self, tmp_path):
        path = _write(tmp_path, "a,target\n10,1\n30,2\n,3\n")
        data = load_csv(path, drop_columns=(), normalize=False, noise_seed=5)
        np.testing.assert_array_equal(data.features, [[10.0], [30.0], [20.0]])
        np.testing.assert_array_equal(data.targets,
                                      np.array([1.0, 2.0, 3.0]) + _noise(5, 3))
        assert data.noise_applied
        assert data.feature_names == ("a",)
        assert data.row_count == 3 and data.features.shape[1] == 1

    def test_missing_target_median_filled(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,10\n2,30\n3,\n")
        data = load_csv(path, drop_columns=(), normalize=False, noise_seed=4)
        np.testing.assert_array_equal(data.targets,
                                      np.array([10.0, 30.0, 20.0]) + _noise(4, 3))

    def test_negative_noise_seed_is_named(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,2\n3,4\n")
        message = r"^noise_seed must be a non-negative integer, got -1$"
        with pytest.raises(ValueError, match=message):
            load_csv(path, drop_columns=(), noise_seed=-1)

    def test_drop_columns_removed(self, tmp_path):
        path = _write(tmp_path,
                      "country,a,status,target\nUS,1,ok,5\nFR,2,bad,6\nDE,3,ok,7\n")
        data = load_csv(path, normalize=False)
        assert data.feature_names == ("a",)
        np.testing.assert_array_equal(data.features, [[1.0], [2.0], [3.0]])

    def test_comments_skipped(self, tmp_path):
        path = _write(tmp_path, "# provenance: test\n# more\na,target\n1,2\n5,6\n")
        data = load_csv(path, drop_columns=(), normalize=False)
        assert data.row_count == 2

    def test_full_precision_cells_read_back_exactly(self, tmp_path):
        # winsorizing already-preprocessed data clips nothing, so the
        # features come back bit for bit and the target only gains noise
        source = preprocess(synthesize(1, rows=30, dim=3))
        lines = ["# provenance: synthetic seed 1", "f0,f1,f2,target"]
        lines += [",".join(f"{v:.17g}" for v in (*x, y))
                  for x, y in zip(source.features, source.targets)]
        path = _write(tmp_path, "\n".join(lines) + "\n")
        loaded = load_csv(path, drop_columns=(), normalize=False, noise_seed=9)
        assert loaded.features.tobytes() == source.features.tobytes()
        np.testing.assert_array_equal(loaded.targets, source.targets + _noise(9, 30))

    def test_constant_column_normalizes_to_zero(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n7,1,0\n7,2,0\n7,3,0\n")
        data = load_csv(path, drop_columns=())
        np.testing.assert_array_equal(data.features[:, 0], [0.0, 0.0, 0.0])

    def test_truncates_before_statistics(self, tmp_path):
        # the huge third row must not leak into the fill/scale stats
        path = _write(tmp_path, "a,target\n0,1\n10,1\n1000,1\n")
        data = load_csv(path, drop_columns=(), max_rows=2)
        assert data.row_count == 2
        np.testing.assert_allclose(data.features[:, 0], [-1.0, 1.0])

    @pytest.mark.parametrize("max_rows", [-1, 0])
    def test_max_rows_below_one_is_refused(self, tmp_path, max_rows):
        path = _write(tmp_path, "a,target\n0,1\n10,1\n1000,1\n")
        with pytest.raises(ValueError, match=f"max_rows must be >= 1, got {max_rows}"):
            load_csv(path, drop_columns=(), max_rows=max_rows)

    def test_error_unparsable_cell(self, tmp_path):
        path = _write(tmp_path, "a,target\nabc,1\n2,3\n")
        with pytest.raises(ValueError, match=r"line 2.*'a'.*'abc'"):
            load_csv(path, drop_columns=())
        # the line number counts comment lines and blank rows too
        path2 = _write(tmp_path, "# source\n# more\na,b,country,target\n1,2,US,4\n\n"
                                 "3,oops,DE,5\n", name="d2.csv")
        with pytest.raises(ValueError, match=r"line 6, column 'b': cannot parse 'oops'"):
            load_csv(path2, drop_columns=("country",))
        # and a quoted line break
        path3 = _write(tmp_path, 'a,target\n1,2\n"3\n",4\n5,x\n', name="d3.csv")
        with pytest.raises(ValueError, match=r"line 5, column 'target': cannot parse 'x'"):
            load_csv(path3, drop_columns=())

    def test_error_ragged_row(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 3 has 2 cells"):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, 'a,target\n1,2\n"3\n",4\n5\n', name="d2.csv")
        with pytest.raises(ValueError, match="line 5 has 1 cells"):
            load_csv(path2, drop_columns=())

    def test_error_numeric_first_row(self, tmp_path):
        path = _write(tmp_path, "1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path, drop_columns=())

    def test_error_missing_columns(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="'target'"):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, "a,target\n1,2\n", name="d2.csv")
        with pytest.raises(ValueError, match="'country'"):
            load_csv(path2)

    def test_error_empty_and_headerless(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="no header"):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, "a,target\n", name="d2.csv")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path2, drop_columns=())

    def test_error_all_missing_column(self, tmp_path):
        path = _write(tmp_path, "a,b,target\n1,,2\n3,,4\n")
        message = f"^{re.escape(str(path))}: column 'b' has no values$"
        with pytest.raises(DataFormatError, match=message):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, "a,target\n1,\n2,\n3,\n", name="d2.csv")
        with pytest.raises(DataFormatError, match="column 'target' has no values"):
            load_csv(path2, drop_columns=())

    def test_error_is_the_root_data_format_error(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(shufflegrad.DataFormatError, match="missing column 'target'"):
            load_csv(path, drop_columns=())

    def test_error_nonfinite_target(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,inf\n2,3\n")
        with pytest.raises(ValueError, match="non-finite target"):
            load_csv(path, drop_columns=())

    def test_error_nonfinite_feature(self, tmp_path):
        # named like an unparsable cell, not left to preprocess as an
        # all-NaN column
        path = _write(tmp_path, "a,b,target\n1,0,1\n inf ,1,2\n2,0,3\n4,1,4\n")
        with pytest.raises(DataFormatError, match=r"line 3, column 'a': 'inf' is not finite"):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, "a,b,target\n1,0,1\n2,-1e999,2\n-inf,1,3\n", name="d2.csv")
        with pytest.raises(DataFormatError, match=r"line 3, column 'b': '-1e999' is not finite"):
            load_csv(path2, drop_columns=())
        # the cell is found again past comments, blank rows and quoted line breaks
        path3 = _write(tmp_path, '# c\na,target\n1,"2\n"\n\n-inf,3\n', name="d3.csv")
        with pytest.raises(DataFormatError, match=r"line 6, column 'a': '-inf' is not finite"):
            load_csv(path3, drop_columns=())

    def test_drop_columns_string_is_refused(self, tmp_path):
        # a bare string would be read as its characters: missing column 'c'
        path = _write(tmp_path, "country,a,target\nUS,1,2\nFR,3,4\n")
        with pytest.raises(ValueError, match=r"^drop_columns must be column names, "
                                             r"not the string 'country'$"):
            load_csv(path, drop_columns="country")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts with a BOM; here before the target's name
        for text in ("target,a,country\n1,2,US\n3,4,FR\n5,,DE\n",
                     "# source\ntarget,a,country\n1,2,US\n\n3,x,DE\n"):
            plain = _write(tmp_path, text, name="plain.csv")
            marked = _write(tmp_path, "\ufeff" + text, name="marked.csv")
            got = _outcome(lambda: load_csv(marked, drop_columns=("country",)))
            want = _outcome(lambda: load_csv(plain, drop_columns=("country",)))
            if isinstance(want, str):
                assert got == want.replace("plain.csv", "marked.csv")
            else:
                assert got == want and want[1] == ("a",)
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert got == f"{marked}: line 5, column 'a': cannot parse 'x' as a number"

    def test_error_not_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,target\n1,2\n\xff,3\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: byte 0xff at "
                                                  f"offset 13 is not UTF-8$"):
            load_csv(path, drop_columns=())
        # far past the reader's first chunk, and counting the byte-order mark
        head = b"\xef\xbb\xbfa,target\n" + b"1,2\n" * 5000
        path.write_bytes(head + b"3,\xe2\x82\n")  # a cut-off three-byte sequence
        with pytest.raises(DataFormatError,
                           match=f"byte 0xe2 at offset {len(head) + 2} is not UTF-8$"):
            load_csv(path, drop_columns=())

    def test_memory_does_not_grow_with_file_length(self, tmp_path):
        # ten times max_rows rows: only the kept rows are held, as floats,
        # so the peak stays within a few copies of the returned arrays
        rng = np.random.default_rng(0)
        cells = rng.standard_normal((10_000, 21))
        lines = [",".join([f"x{j}" for j in range(20)] + ["target"])]
        lines += [",".join(f"{v:.9g}" for v in row) for row in cells]
        path = _write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            data = load_csv(path, drop_columns=(), max_rows=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.row_count == 1000
        assert peak < 5 * (data.features.nbytes + data.targets.nbytes)

    def test_huge_max_rows_sizes_nothing_by_it(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,2\n3,4\n5,6\n")
        data = load_csv(path, drop_columns=(), normalize=False, max_rows=10**12)
        np.testing.assert_array_equal(data.features, [[1.0], [3.0], [5.0]])


def _reference_load(path, drop_columns, max_rows, noise_seed):
    """load_csv by the rules of a two-pass reader: the whole file read as
    lines, every cell of every non-blank row parsed on its own with csv and
    float, a ragged row anywhere refused, then the kept cells of the first
    max_rows rows checked in row order.  Files have their header and columns."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = list(fh)
    skip = 0
    while lines[skip].startswith("#"):
        skip += 1
    reader = csv.reader(lines[skip:])
    header = [h.strip() for h in next(reader)]
    parsed = []
    for row in reader:
        if not row:
            continue
        line = skip + reader.line_num
        if len(row) != len(header):
            raise DataFormatError(f"{path}: line {line} has {len(row)} cells, "
                                  f"header has {len(header)}")
        cells = []
        for cell in row:
            cell = cell.strip()
            try:
                cells.append(float(cell) if cell else np.nan)
            except ValueError:
                cells.append(cell)
        parsed.append((line, cells))
    parsed = parsed[:max_rows]
    keep = [i for i, h in enumerate(header) if h not in drop_columns and h != "target"]
    target = header.index("target")
    for line, cells in parsed:
        for i in (*keep, target):
            if isinstance(cells[i], str):
                raise DataFormatError(f"{path}: line {line}, column {header[i]!r}: "
                                      f"cannot parse {cells[i]!r} as a number")
    raw = RegressionDataset(np.array([[cells[i] for i in keep] for _, cells in parsed]),
                            np.array([cells[target] for _, cells in parsed]),
                            provenance=str(path), feature_names=tuple(header[i] for i in keep))
    try:
        return preprocess(raw, noise_seed=noise_seed)
    except DataFormatError as err:  # an all-empty feature column
        raise DataFormatError(f"{path}: {err}") from None


_FINITE = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3e}"),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(("1E3", "-0", ".5", "+2.")),
)
_CELL = st.one_of(_FINITE, st.sampled_from(("", "nan", "NaN")))
_PAD = st.sampled_from(("", " ", "  ", "\t"))
_TEXT = st.text(alphabet='abcdefxyz.-"', min_size=1, max_size=6)  # never a number
_BREAK = st.sampled_from(("\n", "\r\n"))


@st.composite
def _csv_files(draw):
    """(text, max_rows) of a file with comments, blank rows, padded and
    missing cells, categorical columns, and a few unparsable cells.  Cells
    may be quoted, with doubled quotes and line breaks inside; lines may end
    in CRLF; the file may start with a byte-order mark and may have one
    ragged row anywhere, before or past max_rows."""
    names = [f"x{j}" for j in range(draw(st.integers(1, 3)))] + ["country", "status", "target"]
    header = draw(st.permutations(names))
    rows = []
    for r in range(draw(st.integers(1, 8))):
        cells = []
        for name in header:
            if name in ("country", "status"):
                cells.append(draw(st.one_of(_TEXT, _CELL)))
            else:  # the first target is present, so the target fill has a median
                number = _FINITE if r == 0 and name == "target" else _CELL
                cells.append(draw(_PAD) + draw(number) + draw(_PAD))
        rows.append(cells)
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_PAD) + draw(_TEXT)
    if draw(st.integers(0, 3)) == 0:
        ragged = ["1"] * (len(header) + draw(st.sampled_from((-1, 1))))
        rows.insert(draw(st.integers(0, len(rows))), ragged)
    for cells in rows:
        for k, cell in enumerate(cells):
            if '"' in cell or draw(st.integers(0, 3)) == 0:
                if draw(st.booleans()):
                    cell = draw(st.sampled_from((cell + draw(_BREAK), draw(_BREAK) + cell)))
                cells[k] = '"' + cell.replace('"', '""') + '"'
    newline = draw(_BREAK)
    lines = ["# comment"] * draw(st.integers(0, 2)) + [",".join(header)]
    for cells in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(cells)]
    bom = "\ufeff" * draw(st.integers(0, 1))
    return bom + newline.join(lines) + newline, draw(st.integers(1, 8))


def _outcome(load):
    try:
        data = load()
    except DataFormatError as err:
        return str(err)
    return (data.features.shape, data.feature_names, data.features.view(np.int64).tolist(),
            data.targets.view(np.int64).tolist())


@settings(max_examples=150, deadline=None)
@given(case=_csv_files(), noise_seed=st.integers(0, 100))
@example(case=("x0,country,status,target\n1,US,a,2\n3,FR,b,4\n5,6\n", 1), noise_seed=0)
def test_load_csv_matches_per_cell_reference(case, noise_seed):
    text, max_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(lambda: load_csv(path, max_rows=max_rows, noise_seed=noise_seed))
        want = _outcome(lambda: _reference_load(path, ("country", "status"), max_rows,
                                                noise_seed))
    assert got == want


class TestPreprocess:
    def test_idempotent_apart_from_first_noise(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((120, 3))
        features[5, 0] = 50.0  # outlier for the winsorizer to clip
        data = RegressionDataset(features, rng.standard_normal(120),
                                 provenance="test")
        once = preprocess(data, noise_seed=3)
        assert once.noise_applied
        twice = preprocess(once, noise_seed=3)
        np.testing.assert_array_equal(once.targets, twice.targets)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-9)

    def test_winsorize_exactly_idempotent_without_rescale(self):
        rng = np.random.default_rng(1)
        features = rng.standard_normal((150, 2))
        features[0, 1] = -80.0
        data = RegressionDataset(features, np.zeros(150), provenance="test",
                                 noise_applied=True)
        once = preprocess(data, normalize=False)
        twice = preprocess(once, normalize=False)
        assert np.array_equal(once.features, twice.features)
        assert once.features[0, 1] != -80.0  # the outlier was clipped

    @settings(max_examples=60, deadline=None)
    @given(features=arrays(np.float64, st.tuples(st.integers(1, 250), st.integers(1, 5)),
                           elements=st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 2.5, np.nan)),
                                              st.floats(-1e6, 1e6))),
           flat=st.integers(0, 4), value=st.floats(-10, 10))
    @example(features=np.array([[-1.0, -1.0, -1.0]] * 4 + [[-1.0, -1.0, 0.0], [-1.0, -1.0, -0.0]]),
             flat=0, value=0.0)  # a whole-block clip turns the 0.0 into the bound -0.0
    def test_winsorize_matches_per_column_reference(self, features, flat, value):
        # few distinct values make ties; column `flat` is constant
        features[0, np.isnan(features[0])] = 1.0  # every column has a value
        features[:, flat % features.shape[1]] = value
        want = features.copy()
        for col in want.T:  # the per-column rule
            missing = np.isnan(col)
            col[missing] = np.median(col[~missing])
            col[:] = np.clip(col, np.percentile(col, 1.0, method="lower"),
                             np.percentile(col, 99.0, method="higher"))
        data = RegressionDataset(features, np.zeros(len(features)), provenance="test",
                                 noise_applied=True)
        got = preprocess(data, normalize=False).features
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_all_empty_column_is_named(self):
        features = np.array([[1.0, np.nan], [2.0, np.nan]])
        for names, name in ((("a", "b"), "b"), (None, "f1")):
            data = RegressionDataset(features, np.zeros(2), provenance="test",
                                     feature_names=names)
            with pytest.raises(DataFormatError, match=f"^column '{name}' has no values$"):
                preprocess(data)

    def test_normalized_columns(self):
        data = synthesize(4, rows=80, dim=3)
        out = preprocess(data)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


# ties of +0.0 and -0.0, infinities and magnitudes near 1e+-300; the fill's input has no NaN
@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 300),
                elements=st.one_of(st.sampled_from((0.0, -0.0, np.inf, -np.inf, 1e300, -1e300,
                                                    1e-300, -1e-300)),
                                   st.floats(allow_nan=False))))
@example(x=np.array([-0.0, 0.0, -0.0, 0.0]))
@example(x=np.array([0.0, -0.0, -0.0]))
def test_median_fill_has_the_bits_of_np_median(x):
    with np.errstate(all="ignore"):
        want, got = np.median(x), ingest._median(x)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


class TestSynthesize:
    def test_deterministic_by_seed(self):
        a = synthesize(3, rows=20, dim=4)
        b = synthesize(3, rows=20, dim=4)
        c = synthesize(4, rows=20, dim=4)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()
        assert np.array_equal(a.planted_weights, b.planted_weights)
        assert a.features.tobytes() != c.features.tobytes()

    def test_marks_noise_applied(self):
        assert synthesize(0, rows=5, dim=2).noise_applied

    def test_ridge_recovers_planted_weights(self):
        data = synthesize(2, rows=400, dim=8)
        x, y = data.features, data.targets
        w = np.linalg.solve(x.T @ x + 1e-3 * np.eye(8), x.T @ y)
        err = np.linalg.norm(w - data.planted_weights)
        assert err <= 0.1 * np.linalg.norm(data.planted_weights)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            synthesize(0, rows=0)
        with pytest.raises(ValueError):
            synthesize(0, rows=5, dim=0)


class TestDatasetConfig:
    def test_synthetic_route(self):
        data = dataset_from_config({"synthetic": {"seed": 6, "rows": 40, "dim": 3}})
        assert data.row_count == 40 and data.features.shape[1] == 3
        np.testing.assert_allclose(data.features.mean(axis=0), 0.0, atol=1e-12)

    def test_csv_route(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,2\n3,4\n")
        data = dataset_from_config({"csv": {"path": str(path), "drop_columns": []},
                                    "normalize": False})
        assert data.row_count == 2

    def test_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            dataset_from_config({})
        with pytest.raises(ValueError, match="exactly one"):
            dataset_from_config({"synthetic": {}, "csv": {"path": "x"}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset config keys"):
            dataset_from_config({"synthetic": {}, "bogus": 1})
        with pytest.raises(ValueError, match="unknown synthetic dataset keys"):
            dataset_from_config({"synthetic": {"seeds": 1}})
        with pytest.raises(ValueError, match="unknown csv dataset keys"):
            dataset_from_config({"csv": {"path": "x", "sep": ";"}})
        with pytest.raises(ValueError, match="'path'"):
            dataset_from_config({"csv": {}})

    def test_malformed_values_rejected(self):
        with pytest.raises(ValueError, match="dataset config must be an object, got 5"):
            dataset_from_config(5)
        with pytest.raises(ValueError, match="dataset csv must be an object, got 5"):
            dataset_from_config({"csv": 5})
        with pytest.raises(ValueError, match=r"csv dataset path must be a string, got \['x'\]"):
            dataset_from_config({"csv": {"path": ["x"]}})


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        RegressionDataset(np.zeros(3), np.zeros(3), provenance="bad")
    with pytest.raises(ValueError):
        RegressionDataset(np.zeros((3, 2)), np.zeros(4), provenance="bad")
    with pytest.raises(ValueError):
        RegressionDataset(np.zeros((3, 2)), np.zeros(3), provenance="bad",
                          feature_names=("only_one",))
