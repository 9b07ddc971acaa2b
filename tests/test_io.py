import json
import os
import re
import signal
import tempfile
import threading
import time
import tracemalloc
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
import sigclust.io as sigclust_io
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

    def test_unknown_flag_value_is_bad_config(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(InvalidConfigError, match='header and row_names must be'):
            load_matrix(path, header="maybe")

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


_ENDING = st.sampled_from(["\n", "\r\n", "\r"])
_PAD = st.sampled_from(["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
_ODD_CELL = st.sampled_from([
    "#", "#1", "1#", "\u0661", "\u0661.5", "1\u00a0", "\u00a01", "\u20032", "\ufeff1",
    "1_0", "nan", "1e400", "", " ", "1\x00", '"', '1"2', "0x10", "+.5",
])
_PLAIN_CELL = st.tuples(st.sampled_from(["", " ", "\t"]), _NUMBER,
                        st.sampled_from(["", " ", "\t "])).map("".join)
_ANY_CELL = st.one_of(
    _NUMBER,
    st.tuples(_PAD, _NUMBER, _PAD).map("".join),
    _NUMBER.map(lambda v: f'"{v}"'),
    _ODD_CELL,
)
_LABEL = st.sampled_from(["gene", "s1", "id", '"name"', "g\u00e8ne"])
_BLANK = st.sampled_from(["", " ", "\t", "\x0b"])


def _csv_only(path, **kwargs):
    """load_matrix with the C reader switched off: the csv path alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sigclust_io, "_parse_plain", lambda path, choices: None)
        return load_matrix(path, **kwargs)


# The arguments of TestPlainReaderAgainstCsvPath.test_matches_csv_path, which
# TestChunkBoundaries draws too.
_FILE_ARGS = dict(
    data=st.data(),
    n_rows=st.integers(1, 4),
    n_cols=st.integers(1, 4),
    plain=st.booleans(),
    labels=st.sampled_from(["none", "header", "names", "both", "corner"]),
    header=st.sampled_from(["auto", "yes", "no"]),
    row_names=st.sampled_from(["auto", "yes", "no"]),
    observations_in_rows=st.booleans(),
)


class TestPlainReaderAgainstCsvPath:
    @settings(max_examples=500, deadline=None)
    @given(**_FILE_ARGS)
    def test_matches_csv_path(
        self, data, n_rows, n_cols, plain, labels, header, row_names,
        observations_in_rows,
    ):
        # Plain files go to the C reader unless their structure sends them
        # to the csv path; the rest test that they are sent there.
        cell, label = (_PLAIN_CELL, _WORD) if plain else (_ANY_CELL, _LABEL)
        grid = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows))
        if labels in ("header", "both"):
            grid[0] = data.draw(st.lists(label, min_size=n_cols, max_size=n_cols))
        if labels in ("names", "both"):
            for row in grid:
                row[0] = data.draw(label)
        if labels == "corner":
            grid[0][0] = data.draw(label)
        if data.draw(st.booleans()):  # one ragged row, under any labels
            i = data.draw(st.integers(0, n_rows - 1))
            grid[i] = grid[i][:-1] if data.draw(st.booleans()) else grid[i] + ["1"]
        lines = [",".join(row) for row in grid]
        if data.draw(st.booleans()):  # a blank or whitespace-only interior line
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(_BLANK))
        lines += data.draw(st.lists(_BLANK, max_size=2))  # trailing blank lines
        ending = data.draw(_ENDING)
        text = "".join(line + data.draw(st.one_of(st.just(ending), _ENDING))
                       for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_bytes(text.encode())
            kwargs = dict(header=header, row_names=row_names,
                          observations_in_rows=observations_in_rows)
            assert _outcome(load_matrix, path, **kwargs) == \
                _outcome(_csv_only, path, **kwargs)

    @pytest.mark.parametrize("text", [
        "1\n\n2\n",  # a blank line the C reader would skip, with no comma to miss
        "g1,1\n\ng2,2,3\n",  # a blank line and an extra cell, commas balanced
        "\r\n1\r\n2\r\n",  # a blank first line taken for the header
        "g1,1,2\ng2,3,4,5\n",  # an extra cell that usecols would drop
        "g1,1,2\ng2,3\n",
        "1,2\n \n3,4\n",
        "1,\x1c2\n3,4\n",
        '1,"2"\n3,4\n',
        "1,2\n3,4\n \n\x0b\n",
    ])
    def test_structure_the_c_reader_misreads(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        for kwargs in ({}, {"observations_in_rows": True}):
            assert _outcome(load_matrix, path, **kwargs) == \
                _outcome(_csv_only, path, **kwargs)

    @pytest.mark.parametrize("text, want, strips", [
        ("1,2,3\n4,5,6\n", [[1, 2, 3], [4, 5, 6]], 0),
        ("s1,s2,s3\n1,2,3\n4,5,6\n", [[1, 2, 3], [4, 5, 6]], 1),
        ("g1,1,2\ng2,3,4\n", [[1, 2], [3, 4]], 1),
        ("gene,s1,s2\ng1,1,2\ng2,3,4\n\n", [[1, 2], [3, 4]], 2),
        ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]], 0),
        (",V1,V2\ng1,1,2\ng2,3,4\n", [[1, 2], [3, 4]], 2),  # R, quote = FALSE
    ])
    def test_plain_files_take_the_c_reader(self, tmp_path, monkeypatch, text, want, strips):
        def no_csv(*args):
            raise AssertionError("a plain file fell through to the csv path")

        monkeypatch.setattr(sigclust_io, "_parse_csv", no_csv)
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = load_matrix(path)
        np.testing.assert_array_equal(x.values, want)
        assert len(caught) == strips


def _whole_file_counts(data: bytes):
    """What ``_plain_counts`` finds, worked out on the file's bytes at once."""
    if not data.isascii() or any(c in data for c in b'"\x1c\x1d\x1e\x1f'):
        return None
    head = data.rstrip(b" \t\n\r\x0b\x0c")
    if not head or data[:1] in (b"\r", b"\n"):
        return None
    lines = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return lines, data.count(b",")


class TestChunkBoundaries:
    """The scan for the C reader gives the same answer at any chunk size."""

    @staticmethod
    def _checked_counts(mp):
        real = sigclust_io._plain_counts

        def counts(path):
            got = real(path)
            assert got == _whole_file_counts(Path(path).read_bytes())
            return got

        mp.setattr(sigclust_io, "_plain_counts", counts)

    @settings(max_examples=300, deadline=None)
    @given(chunk=st.integers(1, 7), **_FILE_ARGS)
    def test_small_chunks_match_csv_path(self, chunk, **args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sigclust_io, "_CHUNK", chunk)
            self._checked_counts(mp)
            TestPlainReaderAgainstCsvPath.test_matches_csv_path.hypothesis.inner_test(
                TestPlainReaderAgainstCsvPath(), **args)

    @pytest.mark.parametrize("text, plain", [
        ("1,2\r\n3,4\r\n", True),
        ("1,2\r3,4\r", True),
        ("1,2\r\n3,4\n5,6\r7,8\r\n", True),
        ("1,2\n3,4\n \n\t\r\n\n\x0b\x0c\r\n\r\n  \n", True),
        ("1,2\r\n3,4\r\r\n\r\n", True),
        ("\r\n1,2\r\n3,4\r\n", False),
        ("\n1,2\n3,4\n", False),
        ("1,2\r\n\r\n3,4\r\n", False),
    ])
    def test_line_endings_across_chunks(self, tmp_path, monkeypatch, text, plain):
        # At chunk sizes 1-7 every \r\n pair here is split across two
        # chunks at least once, and the trailing blank lines span several.
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        want = _outcome(_csv_only, path)
        self._checked_counts(monkeypatch)
        for chunk in range(1, 8):
            monkeypatch.setattr(sigclust_io, "_CHUNK", chunk)
            assert _outcome(load_matrix, path) == want
            assert (sigclust_io._parse_plain(path, [(0, 0)]) is not None) == plain


def _assert_no_child():
    """No child process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Edits of TestSplitRead._matrix's lines, at line ``at`` (by default in the
# last third of its 30 data lines) and each with as many commas as the file
# had: the plain-file scan passes them, and the C reader meets them.
def _bad_cell(lines, at=28):
    lines[at] = lines[at].replace(",", ",x", 1)


def _blank_line(lines, at=27):
    lines.insert(at, "")
    lines[29] += ",1,1,1"  # extra cells, which usecols drops


def _ragged_rows(lines, at=25):
    lines[at] = lines[at].rsplit(",", 1)[0]
    lines[29] += ",1"


class TestSplitRead:
    """A plain file read in parts by forked processes gives what one read
    gives: the same values, warnings and errors, and no child left."""

    @staticmethod
    def _split(mp, cpus):
        # A 1-byte share: every file with `cpus` data lines or more is split.
        mp.setattr(sigclust_io, "_SPLIT_BYTES", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        real = sigclust_io._parse_plain

        def parse_plain(path, choices):
            try:
                return real(path, choices)
            finally:
                _assert_no_child()

        mp.setattr(sigclust_io, "_parse_plain", parse_plain)

    @staticmethod
    def _forks(mp):
        calls = []
        real = os.fork

        def fork():
            calls.append(os.getpid())
            return real()

        mp.setattr(os, "fork", fork)
        return calls

    @staticmethod
    def _matrix(tmp_path, rows=30, edit=None):
        """A plain rows x 4 file with a header and row names; ``edit`` may
        change its lines before they are written."""
        values = np.random.default_rng(rows).standard_normal((rows, 3))
        lines = ["gene,s1,s2,s3"] + [f"g{i}," + ",".join(map(repr, map(float, row)))
                                     for i, row in enumerate(values)]
        if edit:
            edit(lines)
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @settings(max_examples=200, deadline=None)
    @given(cpus=st.integers(2, 3), **_FILE_ARGS)
    def test_split_matches_csv_path(self, cpus, **args):
        with pytest.MonkeyPatch.context() as mp:
            self._split(mp, cpus)
            TestPlainReaderAgainstCsvPath.test_matches_csv_path.hypothesis.inner_test(
                TestPlainReaderAgainstCsvPath(), **args)

    @pytest.mark.parametrize("edit", [
        _bad_cell, _blank_line, _ragged_rows,
    ], ids=["bad-cell", "blank-line", "ragged-rows"])
    def test_error_in_the_last_part_is_the_serial_error(self, tmp_path, monkeypatch, edit):
        path = self._matrix(tmp_path, edit=edit)
        want = _outcome(load_matrix, path)
        assert want[0][0] is ParseError
        self._split(monkeypatch, 3)
        forks = self._forks(monkeypatch)
        assert _outcome(load_matrix, path) == want
        assert len(forks) == 2

    @pytest.mark.parametrize("edit", [
        _bad_cell, _blank_line, _ragged_rows,
    ], ids=["bad-cell", "blank-line", "ragged-rows"])
    def test_error_in_the_first_part_is_the_serial_error(self, tmp_path, monkeypatch, edit):
        # The first part is the parent's own; its children are still reaped.
        path = self._matrix(tmp_path, edit=lambda lines: edit(lines, at=5))
        want = _outcome(load_matrix, path)
        assert want[0][0] is ParseError
        self._split(monkeypatch, 3)
        forks = self._forks(monkeypatch)
        assert _outcome(load_matrix, path) == want
        assert len(forks) == 2

    def test_part_a_child_rejects_is_read_again(self, tmp_path, monkeypatch):
        # A child exits 1 on a rejected part as on any failure, and the
        # parent's own read of that part decides.
        path = self._matrix(tmp_path, edit=_bad_cell)
        want = _outcome(load_matrix, path)
        me, real, reads = os.getpid(), sigclust_io._read_range, []

        def read_range(path, start, stop, *rest):
            if os.getpid() == me:
                reads.append((start, stop))
            return real(path, start, stop, *rest)

        monkeypatch.setattr(sigclust_io, "_read_range", read_range)
        self._split(monkeypatch, 3)
        assert _outcome(load_matrix, path) == want
        assert reads == [(1, 11), (21, 31)]  # its own part, then the last child's

    def test_part_of_blank_lines_is_the_serial_error(self, tmp_path, monkeypatch):
        # numpy's reader warns on a part with no data; that must not show.
        def blank_middle_part(lines):
            lines[11:21] = [""] * 10
            lines[25] += ",1" * 30  # commas balanced, cells usecols drops

        path = self._matrix(tmp_path, edit=blank_middle_part)
        want = _outcome(load_matrix, path)
        assert want[0][0] is ParseError
        self._split(monkeypatch, 3)
        assert _outcome(load_matrix, path) == want

    @pytest.mark.parametrize("fail", ["raise", "kill"])
    def test_failed_child_is_read_again(self, tmp_path, monkeypatch, fail):
        path = self._matrix(tmp_path)
        want = _outcome(load_matrix, path)
        me, real = os.getpid(), sigclust_io._read_range

        def read_range(*args):
            if os.getpid() != me:
                if fail == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("a child fails")
            return real(*args)

        monkeypatch.setattr(sigclust_io, "_read_range", read_range)
        self._split(monkeypatch, 3)
        forks = self._forks(monkeypatch)
        assert _outcome(load_matrix, path) == want
        assert len(forks) == 2

    def test_interrupted_parent_stops_its_children(self, tmp_path, monkeypatch):
        path = self._matrix(tmp_path)
        me = os.getpid()

        def read_range(*args):
            if os.getpid() != me:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(sigclust_io, "_read_range", read_range)
        self._split(monkeypatch, 3)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sigclust_io._parse_plain(path, [(1, 1)])
        assert time.monotonic() - t0 < 30

    def test_fork_warning_is_not_shown(self, tmp_path, monkeypatch):
        # Python 3.12+ warns at every fork while OpenBLAS's threads run.
        path = self._matrix(tmp_path)
        want = _outcome(load_matrix, path)
        real = os.fork

        def fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return real()

        self._split(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", fork)
        assert _outcome(load_matrix, path) == want

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        path = self._matrix(tmp_path)
        want = _outcome(load_matrix, path)
        self._split(monkeypatch, 3)
        forks = self._forks(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(30,))
        thread.start()
        try:
            assert _outcome(load_matrix, path) == want
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        assert forks == []
        assert _outcome(load_matrix, path) == want
        assert len(forks) == 2


def _first_bad_byte(data: bytes, encoding: str):
    """(line, offset) of the first byte that ``encoding`` rejects, or None."""
    try:
        data.decode(encoding)
    except UnicodeDecodeError as err:
        head = data[:err.start]
        return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1, err.start
    return None


class TestUndecodableFile:
    @pytest.mark.parametrize("data", [
        b"g\xe8ne,s1\ng1,1\ng2,2\n",
        b"a,b\r\n1,2\r\n\xc3\xa9,3\r\n4,\xe8\r\n",
        b"1,2\r3,4\r5,\xff\r",
        b"\xc3\xa9\xc3\xa9,1\n2,\xe2\x82\n",
        b"1,2\n3,\xc3",
    ], ids=["latin1-header", "crlf-after-multibyte", "cr-lines", "cut-sequence", "cut-at-end"])
    def test_parse_error_names_line_and_byte(self, tmp_path, monkeypatch, data):
        # Every chunk size from 1 byte splits each multibyte sequence and
        # each \r\n somewhere; the offset and line stay those of the file.
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        with open(path) as fh:
            encoding = fh.encoding
        want = _first_bad_byte(data, encoding)
        if want is None:
            pytest.skip(f"the locale's encoding {encoding} decodes every byte")
        line, offset = want
        for chunk in [*range(1, 8), 1 << 20]:
            monkeypatch.setattr(sigclust_io, "_CHUNK", chunk)
            with pytest.raises(ParseError) as exc:
                load_matrix(path)
            assert exc.value.line == line
            assert str(exc.value) == (
                f"{path}: line {line}: byte {offset} is not valid {encoding} text")


class TestStreamedFile:
    def test_load_holds_less_than_the_file(self, tmp_path):
        values = np.random.default_rng(6).standard_normal((5000, 40))
        path = tmp_path / "m.csv"
        np.savetxt(path, values, fmt="%.18e", delimiter=",")
        assert path.stat().st_size > 3 * values.nbytes
        tracemalloc.start()
        try:
            x = load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(x.values, values)
        assert peak < 3 * values.nbytes

    def test_gz_name_is_read_as_text(self, tmp_path):
        # A path string would let numpy pick a decompressor by extension.
        text = "1,2,3\n4,5,6\n"
        (tmp_path / "m.csv").write_text(text)
        (tmp_path / "m.csv.gz").write_text(text)
        assert _outcome(load_matrix, tmp_path / "m.csv.gz") == \
            _outcome(load_matrix, tmp_path / "m.csv")


class TestFailFast:
    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        real = sigclust_io._grid_values

        def spy(grid):
            calls.append(len(grid))
            return real(grid)

        monkeypatch.setattr(sigclust_io, "_grid_values", spy)
        return calls

    def test_bad_interior_cell_converts_one_grid(self, tmp_path, conversions):
        path = tmp_path / "m.csv"
        path.write_text("gene,s1,s2\ng1,1,2\ng2,x,4\ng3,5,6\n")
        with pytest.raises(ParseError) as exc:
            load_matrix(path)
        assert (exc.value.line, exc.value.column) == (3, 2)
        assert len(conversions) == 1
        assert _outcome(load_matrix, path) == _outcome(reference.load_matrix, path)

    def test_bad_cell_outside_a_later_grid_still_tries_it(self, tmp_path, conversions):
        # The bad cell sits in the first column, so stripping it as row
        # names is still tried, and it parses.
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\nx,5,6\n7,8,9\n")
        with pytest.warns(UserWarning, match="row names"):
            x = load_matrix(path)
        np.testing.assert_array_equal(x.values, [[2, 3], [5, 6], [8, 9]])
        assert len(conversions) == 2
        assert _outcome(load_matrix, path) == _outcome(reference.load_matrix, path)


class TestLabelsAndSpectrumFiles:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2\n2\n1\n")
        np.testing.assert_array_equal(load_labels(path, 4), [1, 2, 2, 1])

    def test_labels_skip_blank_lines(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("\n1\n  \n2\n\n2\n")
        np.testing.assert_array_equal(load_labels(path, 3), [1, 2, 2])

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kept_rows_match_sorted_oracle(self, data):
        # Entries from a small integer range, so equal rows and tied ranks are common.
        d = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(2, 5))
        cells = data.draw(st.lists(st.integers(-2, 3), min_size=d * n, max_size=d * n))
        x = DataMatrix(np.array(cells, dtype=np.float64).reshape(d, n))
        top_k = data.draw(st.integers(1, d))
        means = x.values.mean(axis=1)
        sds = x.values.std(axis=1, ddof=1)

        def rank(i):  # positive means by sd/mean, then the rest by sd; ties by index
            return (0, -(sds[i] / means[i]), i) if means[i] > 0 else (1, -sds[i], i)

        keep = sorted(sorted(range(d), key=rank)[:top_k])
        np.testing.assert_array_equal(filter_variables(x, top_k).values, x.values[keep])

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
