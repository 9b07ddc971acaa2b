import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import io_reference as reference

from sigclust import (
    DataMatrix,
    InvalidConfigError,
    InvalidDataError,
    InvalidLabelsError,
    ParseError,
    RunManifest,
    TestConfig,
    emit_report,
    filter_variables,
    load_matrix,
    run_test,
)
from sigclust.io import load_eigenvalue_file, load_labels, report_to_dict


class TestLoadMatrix:
    def test_variables_in_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        x = load_matrix(path)
        assert (x.d, x.n) == (3, 2)
        np.testing.assert_array_equal(x.values, [[1, 2], [3, 4], [5, 6]])

    def test_observations_in_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        x = load_matrix(path, observations_in_rows=True)
        assert (x.d, x.n) == (2, 3)
        np.testing.assert_array_equal(x.values, [[1, 3, 5], [2, 4, 6]])

    def test_non_numeric_cell_coordinates(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,abc\n7,8,9\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert exc.value.line == 2

    def test_nan_cell_is_invalid_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(InvalidDataError):
            load_matrix(path)

    def test_header_and_row_names_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("gene,s1,s2,s3\ng1,1,2,3\ng2,4,5,6\n")
        with pytest.warns(UserWarning):
            x = load_matrix(path)
        assert (x.d, x.n) == (2, 3)
        np.testing.assert_array_equal(x.values, [[1, 2, 3], [4, 5, 6]])

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s1,s2\n1,2\n3,4\n")
        with pytest.warns(UserWarning):
            x = load_matrix(path)
        assert (x.d, x.n) == (2, 2)

    def test_explicit_flags_override(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        x = load_matrix(path, header="yes")
        assert (x.d, x.n) == (2, 2)
        np.testing.assert_array_equal(x.values, [[3, 4], [5, 6]])

    def test_all_numeric_stays_untouched(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1990,2000\n1,2\n3,4\n")
        x = load_matrix(path)  # numeric-looking header kept as data
        assert (x.d, x.n) == (3, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "nope.csv")

    def test_write_then_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(7, 5))
        path = tmp_path / "m.csv"
        path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
        )
        x = load_matrix(path)
        np.testing.assert_array_equal(x.values, values)


def _outcome(load, path, **kwargs):
    """What one load gives: values (bytes and shape) or the error, plus warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            x = load(path, **kwargs)
            result = ("ok", x.values.shape, x.values.tobytes())
        except Exception as err:
            result = (type(err), str(err), getattr(err, "line", None),
                      getattr(err, "column", None))
    return result, [str(w.message) for w in caught]


_NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_CELL = st.one_of(
    _NUMBER,
    st.tuples(st.sampled_from(["", " ", "  ", "\t"]), _NUMBER,
              st.sampled_from(["", " ", "\t "])).map("".join),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1_0", "1__0", "1e400"]),
    _NUMBER.map(lambda v: f'"{v}"'),
    st.sampled_from(['" 2.5 "', "abc", "gene", "s1", "x1", "", " "]),
)
_WORD = st.sampled_from(["gene", "s1", "id", "name"])


class TestLoadMatrixAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(1, 6),
        n_cols=st.integers(1, 6),
        labels=st.sampled_from(["none", "header", "names", "both", "corner"]),
        trailing=st.lists(st.sampled_from(["", " ", "\t"]), max_size=2),
        header=st.sampled_from(["auto", "yes", "no"]),
        row_names=st.sampled_from(["auto", "yes", "no"]),
        observations_in_rows=st.booleans(),
    )
    def test_matches_cell_by_cell_loader(
        self, data, n_rows, n_cols, labels, trailing, header, row_names,
        observations_in_rows,
    ):
        grid = data.draw(st.lists(st.lists(_CELL, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows))
        if labels in ("header", "both"):
            grid[0] = data.draw(st.lists(_WORD, min_size=n_cols, max_size=n_cols))
        if labels in ("names", "both"):
            for row in grid:
                row[0] = data.draw(_WORD)
        if labels == "corner":  # either one-sided strip may parse; row names go first
            grid[0][0] = data.draw(_WORD)
        if data.draw(st.booleans()):  # one ragged row
            i = data.draw(st.integers(0, n_rows - 1))
            grid[i] = grid[i][:-1] if data.draw(st.booleans()) else grid[i] + ["1"]
        text = "\n".join(",".join(row) for row in grid) + "\n"
        text += "".join(line + "\n" for line in trailing)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text)
            kwargs = dict(header=header, row_names=row_names,
                          observations_in_rows=observations_in_rows)
            assert _outcome(load_matrix, path, **kwargs) == \
                _outcome(reference.load_matrix, path, **kwargs)

    def test_corner_word_strips_row_names_first(self, tmp_path):
        # Stripping the header row or the row-name column alone would both
        # parse; the row names go, as the cell-by-cell loader decides.
        path = tmp_path / "m.csv"
        path.write_text("id,1,2\n3,4,5\n")
        with pytest.warns(UserWarning, match="row names"):
            x = load_matrix(path)
        np.testing.assert_array_equal(x.values, [[1, 2], [4, 5]])
        assert _outcome(load_matrix, path) == _outcome(reference.load_matrix, path)

    @pytest.mark.parametrize("text, kwargs, where", [
        # Header and row names with a bad interior cell: the last choice
        # tried strips both and reports the interior cell.
        ("gene,s1,s2\ng1,1,2\ng2,x,4\n", {}, (3, 2)),
        # A pinned "no header" on a file with one reports the header cell.
        ("s1,s2\n1,2\n3,4\n", {"header": "no"}, (1, 2)),
        ("s1,s2\n1,2\n3,4\n", {"header": "no", "row_names": "no"}, (1, 1)),
        # A blank middle line is a row of zero cells.
        ("1,2\n\n3,4\n", {}, (2, None)),
    ])
    def test_error_coordinates(self, tmp_path, text, kwargs, where):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_matrix(path, **kwargs)
        assert (exc.value.line, exc.value.column) == where
        assert _outcome(load_matrix, path, **kwargs) == \
            _outcome(reference.load_matrix, path, **kwargs)


class TestLabelsAndSpectrumFiles:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2\n2\n1\n")
        np.testing.assert_array_equal(load_labels(path, 4), [1, 2, 2, 1])

    def test_labels_bad_value(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n3\n")
        with pytest.raises(ParseError) as exc:
            load_labels(path, 2)
        assert exc.value.line == 2

    def test_labels_wrong_count(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2\n")
        with pytest.raises(InvalidLabelsError):
            load_labels(path, 3)

    def test_eigenvalue_file(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# top\n100\n1.5\n\n1\n")
        np.testing.assert_array_equal(load_eigenvalue_file(path), [100.0, 1.5, 1.0])

    def test_eigenvalue_file_bad_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("1.0\nxyz\n")
        with pytest.raises(ParseError) as exc:
            load_eigenvalue_file(path)
        assert exc.value.line == 2


class TestFilterVariables:
    def test_identity_when_k_equals_d(self):
        rng = np.random.default_rng(1)
        x = DataMatrix(rng.normal(size=(4, 6)))
        assert filter_variables(x, 4) is x

    def test_ranking_by_ratio(self):
        # Rows with mean 10, 2, 5 and equal sds: ratios 0.141, 0.707, 0.283.
        x = DataMatrix(np.array([[9.0, 11.0], [1.0, 3.0], [4.0, 6.0]]))
        out = filter_variables(x, 2)
        np.testing.assert_array_equal(out.values, [[1.0, 3.0], [4.0, 6.0]])

    def test_nonpositive_means_rank_below_positive(self):
        x = DataMatrix(
            np.array(
                [
                    [-5.0, 5.0],   # mean 0, huge sd: ranked below positives
                    [1.0, 1.2],    # positive mean, small sd
                    [2.0, 2.1],    # positive mean, smaller ratio
                ]
            )
        )
        out = filter_variables(x, 2)
        np.testing.assert_array_equal(out.values, [[1.0, 1.2], [2.0, 2.1]])

    def test_nonpositive_tier_ordered_by_sd(self):
        x = DataMatrix(
            np.array(
                [
                    [-1.0, 1.0],    # mean 0, sd ~1.41
                    [-10.0, 10.0],  # mean 0, sd ~14.1
                    [5.0, 6.0],     # positive mean
                ]
            )
        )
        out = filter_variables(x, 2)
        np.testing.assert_array_equal(out.values, [[-10.0, 10.0], [5.0, 6.0]])

    def test_out_of_range(self):
        rng = np.random.default_rng(2)
        x = DataMatrix(rng.normal(size=(3, 4)))
        with pytest.raises(InvalidConfigError):
            filter_variables(x, 0)
        with pytest.raises(InvalidConfigError):
            filter_variables(x, 4)


class TestEmitReport:
    @pytest.fixture
    def report_and_manifest(self, tmp_path):
        rng = np.random.default_rng(3)
        x = DataMatrix(rng.normal(size=(5, 14)))
        config = TestConfig(method="hard", n_sim=120, master_seed=77)
        report = run_test(x, config)
        manifest = RunManifest(
            input_path="m.csv", method="hard", n_sim=120, seed=77,
            out_dir=str(tmp_path),
        )
        return report, manifest

    def test_round_trip(self, report_and_manifest):
        report, manifest = report_and_manifest
        paths = emit_report(report, manifest)
        payload = json.loads(paths[0].read_text())
        want = report_to_dict(report, manifest)
        assert payload == want
        assert payload["p_empirical"] == report.p_empirical
        assert payload["null_cis"] == [float(v) for v in report.null_cis]
        assert list(payload)[-1] == "timing_seconds"

    def test_null_ci_csv_rows(self, report_and_manifest):
        report, manifest = report_and_manifest
        paths = emit_report(report, manifest)
        lines = paths[1].read_text().strip().splitlines()
        assert lines[0] == "rep,ci"
        assert len(lines) == 1 + report.n_sim

    def test_ecdf_csv(self, report_and_manifest):
        report, manifest = report_and_manifest
        paths = emit_report(report, manifest)
        lines = paths[2].read_text().strip().splitlines()
        assert lines[0] == "rank,ci,quantile"
        assert len(lines) == 1 + report.n_sim
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1 / (report.n_sim + 1))

    def test_same_seed_bytes_identical_apart_from_timing(self, tmp_path):
        rng = np.random.default_rng(4)
        x = DataMatrix(rng.normal(size=(4, 10)))
        manifest = RunManifest(input_path="m.csv", method="sample",
                               n_sim=100, seed=5, out_dir=str(tmp_path))
        texts = []
        for _ in range(2):  # second run overwrites the first
            config = TestConfig(method="sample", n_sim=100, master_seed=5)
            report = run_test(x, config)
            paths = emit_report(report, manifest)
            texts.append(paths[0].read_text())
        strip = [re.sub(r'"timing_seconds": [^\n]+', '"timing_seconds": X', t) for t in texts]
        assert strip[0] == strip[1]
