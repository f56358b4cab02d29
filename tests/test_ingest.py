import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
        assert data.row_count == 3 and data.dim == 1

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
        with pytest.raises(ValueError, match="'b' has no values"):
            load_csv(path, drop_columns=())
        path2 = _write(tmp_path, "a,target\n1,\n2,\n3,\n", name="d2.csv")
        with pytest.raises(DataFormatError, match="column 'target' has no values"):
            load_csv(path2, drop_columns=())

    def test_error_nonfinite_target(self, tmp_path):
        path = _write(tmp_path, "a,target\n1,inf\n2,3\n")
        with pytest.raises(ValueError, match="non-finite target"):
            load_csv(path, drop_columns=())


def _reference_load(path, drop_columns, max_rows, noise_seed):
    """load_csv by the pre-change rules: every cell of every non-blank
    row parsed on its own with csv and float, then the kept cells of the
    first max_rows rows checked in row order.  Files are well formed."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(fh)
    skip = 0
    while lines[skip].startswith("#"):
        skip += 1
    rows = list(csv.reader(lines[skip:]))
    header = [h.strip() for h in rows[0]]
    parsed = []
    for line, row in enumerate(rows[1:], start=skip + 2):
        if not row:
            continue
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
    return preprocess(raw, noise_seed=noise_seed)


_FINITE = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3e}"),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(("1E3", "-0", ".5", "+2.")),
)
_CELL = st.one_of(_FINITE, st.sampled_from(("", "nan", "NaN")))
_PAD = st.sampled_from(("", " ", "  ", "\t"))
_TEXT = st.text(alphabet="abcdefxyz.-", min_size=1, max_size=6)  # never a number


@st.composite
def _csv_files(draw):
    """(text, max_rows) of a file with comments, blank rows, padded and
    missing cells, categorical columns, and a few unparsable cells."""
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
    lines = ["# comment"] * draw(st.integers(0, 2)) + [",".join(header)]
    for cells in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(cells)]
    return "\n".join(lines) + "\n", draw(st.integers(1, 8))


def _outcome(load):
    try:
        data = load()
    except DataFormatError as err:
        return str(err)
    return (data.features.shape, data.feature_names, data.features.view(np.int64).tolist(),
            data.targets.view(np.int64).tolist())


@settings(max_examples=150, deadline=None)
@given(case=_csv_files(), noise_seed=st.integers(0, 100))
def test_load_csv_matches_per_cell_reference(case, noise_seed):
    text, max_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
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

    def test_normalized_columns(self):
        data = synthesize(4, rows=80, dim=3)
        out = preprocess(data)
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


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
        assert data.row_count == 40 and data.dim == 3
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
