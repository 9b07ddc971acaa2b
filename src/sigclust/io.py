"""Every text format: matrix, label, spectrum and scenario input,
variable filtering, and the tables and documents sigclust writes.

Text is read in the locale's encoding, less a leading UTF-8 byte-order
mark (Excel's "CSV UTF-8" writes one). Matrices are rectangular numeric
CSV files, optionally with a single header row and a leading row-name
column; both are auto-detected as the least stripping that leaves a
numeric grid, or pinned explicitly. A plain file (ASCII, no quotes, no
blank line inside, every row as wide as the first) is read by numpy's C
reader; every other file, and any plain file that reader rejects, goes
through the csv module, which defines the cell syntax, the warnings and
the errors for both. Neither holds the file's text whole. On Linux a
large plain file is read in parts by forked processes, one per CPU, into
one shared buffer, with the values, warnings and errors of one read.
Label and spectrum files hold one value per line, blank and '#' lines
skipped. Every table and document is one write with LF line ends, to a
file or to stdout; a report's JSON keys keep a fixed order, so two runs
with one seed give the same bytes but for the timing field.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import locale
import mmap
import os
import signal
import warnings as _pywarnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .engine import TestConfig, TestReport, _forks, _quiet_fork
from .errors import InvalidConfigError, InvalidLabelsError, ParseError
from .linalg import DataMatrix
from .spectrum import NullSpectrum

# Rows or columns each header / row-names choice may strip. Their product,
# in order, tries the least stripping first and row names before a header.
_STRIPS = {"auto": (0, 1), "yes": (1,), "no": (0,)}
# Bytes that keep a file off the C reader: the quote, and the separators
# U+001C-U+001F, which the C reader strips from a cell and float() does not.
_NOT_PLAIN = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# The white-space bytes a blank line may hold, and the size of the binary
# chunks in which a matrix file is scanned.
_BLANK = b" \t\n\r\x0b\x0c"
_CHUNK = 1 << 20
# The least share of a plain file worth a forked reader of its own.
_SPLIT_BYTES = 8 << 20
_LF, _COMMA = ord("\n"), ord(",")


@dataclass(frozen=True)
class RunManifest:
    """Echo of one CLI test invocation, embedded in the report JSON.

    Only statistically relevant settings belong here; execution knobs such
    as the worker count are excluded so reports stay byte-identical across
    worker configurations.
    """

    input_path: str
    observations_in_rows: bool = False
    method: str = TestConfig.method
    n_sim: int = TestConfig.n_sim
    seed: int | None = None
    labels_path: str | None = None
    filter_top_k: int | None = None
    out_dir: str | None = None
    header: str = "auto"
    row_names: str = "auto"
    true_eigenvalues_path: str | None = None


def _floats(cells) -> bool:
    """Whether ``float`` accepts every cell."""
    try:
        list(map(float, cells))
    except ValueError:
        return False
    return True


def _plain_counts(path):
    """(lines, commas) of a file fit for numpy's C reader, or None.

    One pass in ``_CHUNK``-byte binary chunks, so the file is never held
    whole. A file is fit when it is ASCII, holds no byte of ``_NOT_PLAIN``
    and has data and no blank first line. ``lines`` counts the lines up to
    the last byte that is not white space, so trailing blank lines, which
    the csv path drops, are left out; any of ``\n``, ``\r`` and ``\r\n``
    ends a line, also when a ``\r\n`` is split across two chunks.
    """
    breaks = commas = tail = 0  # tail: line breaks after the last non-blank byte
    data = cr = False  # a non-blank byte seen; the last chunk ended in \r
    with open(path, "rb") as fh:
        if fh.read(1) in (b"\r", b"\n"):
            return None  # a blank first line
        fh.seek(0)
        while chunk := fh.read(_CHUNK):
            if not chunk.isascii() or any(c in chunk for c in _NOT_PLAIN):
                return None
            has_cr = b"\r" in chunk
            codes = np.frombuffer(chunk, np.uint8)  # counts 2-3x faster than bytes.count
            n = int(np.count_nonzero(codes == _LF))
            if has_cr:
                n += chunk.count(b"\r") - chunk.count(b"\r\n")
            if cr and chunk.startswith(b"\n"):
                n -= 1  # the second half of a \r\n split across two chunks
            end = len(chunk)
            while end and chunk[end - 1] in _BLANK:
                end -= 1
            if end:
                data = True
                tail = chunk.count(b"\n", end)
                if has_cr:
                    tail += chunk.count(b"\r", end) - chunk.count(b"\r\n", end)
            else:
                tail += n
            breaks += n
            commas += int(np.count_nonzero(codes == _COMMA))
            cr = chunk.endswith(b"\r")
    return (breaks - tail + 1, commas) if data else None


def _parse_plain(path, choices):
    """(values, h, r) read by numpy's C reader, or None to use the csv path.

    The header / row-names choice is the first whose first grid row
    ``float`` accepts; an earlier choice fails on that row in the csv path
    too. The reader then runs only on files where it agrees with the csv
    path: those ``_plain_counts`` finds fit, with as many commas as lines x
    (width - 1). A blank line inside the data, which the reader skips and
    the csv path reports, shows as a short row count. A large file is read
    in parts by forked processes (``_split_count``, ``_read_split``), with
    the same values as one read.
    """
    counts = _plain_counts(path)
    if counts is None:
        return None
    lines, commas = counts
    with open(path, encoding="ascii", newline="") as stream:
        first_rows = [stream.readline().rstrip("\r\n").split(",") for _ in range(2)]
    width = len(first_rows[0])
    for h, r in choices:
        if h < lines and r < width and _floats(first_rows[h][r:]):
            break
    else:
        return None
    if commas != lines * (width - 1):
        return None  # a ragged row, which usecols alone would not catch
    usecols = range(r, width) if r else None
    k = _split_count(path, lines - h)
    if k == 1:
        values = _read_range(path, h, lines, usecols, width - r)
    else:
        bounds = [h + (lines - h) * i // k for i in range(k + 1)]
        values = _read_split(path, bounds, usecols, width - r)
    return None if values is None else (values, h, r)


def _split_count(path, rows) -> int:
    """How many processes read a plain file of ``rows`` data lines: one per
    CPU this process may run on, each with at least ``_SPLIT_BYTES`` of the
    file and one line. One, so no fork, where ``engine._forks`` is false."""
    if not _forks():
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, os.path.getsize(path) // _SPLIT_BYTES, rows))


def _read_range(path, start, stop, usecols, width):
    """Lines [start, stop) of a plain file as numpy's C reader reads them,
    or None when it rejects one or skips a blank line. The lines are split
    by a ``newline=""`` text stream, as the csv path splits them. A blank
    first line is rejected unread: the reader warns on only blank lines."""
    with open(path, encoding="ascii", newline="") as stream:
        lines = itertools.islice(stream, start, stop)
        first = next(lines, "")
        if not first.strip():
            return None
        try:
            values = np.loadtxt(
                itertools.chain([first], lines), dtype=np.float64,
                delimiter=",", comments=None, ndmin=2, usecols=usecols,
            )
        except ValueError:
            return None
    return values if values.shape == (stop - start, width) else None


def _read_split(path, bounds, usecols, width):
    """The lines ``bounds[0]`` to ``bounds[-1]`` of a plain file, read as
    ``_read_range`` reads them, in the parts between consecutive bounds.

    Each part past the first is read by a forked child, which writes its
    rows into one anonymous shared mapping; the parent reads the first part
    meanwhile. A part is rejected as ``_read_range`` rejects it. A child
    exits 0 once its rows are written and 1 otherwise, and the parent reads
    the part of any child that did not exit 0 again: a failed child costs
    time but changes no value, warning or error. Every child has ended when
    this returns or raises. Returns a view of the mapping, which lives as
    long as the view, or None when any part is rejected.
    """
    rows = bounds[-1] - bounds[0]
    values = np.frombuffer(mmap.mmap(-1, rows * width * 8), np.float64).reshape(rows, width)

    def fill(start, stop) -> bool:
        part = _read_range(path, start, stop, usecols, width)
        if part is not None:
            values[start - bounds[0]:stop - bounds[0]] = part
        return part is not None

    children = {}  # pid: (start, stop)
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            # The child only parses its own file handle with numpy's C reader
            # and leaves by os._exit, with no BLAS call in between.
            with _quiet_fork():
                pid = os.fork()
            if pid == 0:
                ok = False
                try:
                    _pywarnings.simplefilter("error")  # a warning: the parent reads again
                    ok = fill(start, stop)
                finally:
                    os._exit(0 if ok else 1)
            children[pid] = (start, stop)
        if not fill(bounds[0], bounds[1]):
            return None
        for pid in list(children):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            start, stop = children.pop(pid)
            if code and not fill(start, stop):
                return None
        return values
    finally:
        for pid in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)


def _decode_error(path, err: UnicodeDecodeError) -> ParseError:
    """The ParseError for a text file that ``err.encoding`` cannot decode:
    the file's bytes are rescanned with that codec, in ``_CHUNK``-byte
    chunks, for the 0-based offset and the line of the first bad byte."""
    decoder = codecs.getincrementaldecoder(err.encoding)()
    offset, line, cr = 0, 1, False  # cr: the last chunk ended in \r
    with open(path, "rb") as fh:
        for chunk in itertools.chain(iter(partial(fh.read, _CHUNK), b""), [b""]):
            held = len(decoder.getstate()[0])  # bytes of a sequence split across chunks
            try:
                decoder.decode(chunk, final=not chunk)
                end = None
            except UnicodeDecodeError as bad:
                end = bad.start - held
                chunk = chunk[:max(end, 0)]
            line += chunk.count(b"\n") + chunk.count(b"\r") - chunk.count(b"\r\n")
            line -= cr and chunk.startswith(b"\n")
            cr = chunk.endswith(b"\r")
            if end is not None:
                offset += end
                break
            offset += len(chunk)
    return ParseError(f"{path}: line {line}: byte {offset} is not valid {err.encoding} text",
                      line=line)


@contextmanager
def _open_text(path, **kwargs):
    """``open(path, **kwargs)`` for reading in the locale's encoding, as
    ``utf-8-sig`` where that is UTF-8, so a leading byte-order mark is
    dropped; a decoding failure raises the file's ParseError."""
    utf8 = codecs.lookup(locale.getpreferredencoding(False)).name == "utf-8"
    try:
        with open(path, encoding="utf-8-sig" if utf8 else None, **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as err:
        raise _decode_error(path, err) from None


def _read_rows(path) -> list[list[str]]:
    with _open_text(path, newline="") as fh:
        rows = list(csv.reader(fh))
    while rows and len(rows[-1]) <= 1 and not "".join(rows[-1]).strip():
        rows.pop()  # tolerate trailing blank lines
    if not rows:
        raise ParseError(f"{path}: file contains no data", line=1)
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {width}", line=i
            )
    return rows


def _grid_values(grid) -> np.ndarray:
    """One conversion of a grid of cell strings, as ``float`` reads each."""
    return np.array(grid, dtype=np.float64)


def _first_bad_cell(rows, r0, c0):
    """0-based file coordinates of the first cell of the grid that float() rejects."""
    for i, row in enumerate(rows[r0:], start=r0):
        if not _floats(row[c0:]):
            return i, next(j for j in range(c0, len(row)) if not _floats(row[j:j + 1]))
    return r0, c0  # the grid is empty


def _parse_csv(path, choices):
    """(values, h, r) read with the csv module, or the ParseError a file gets.

    A choice whose first grid row fails, or whose grid holds a known bad
    cell, fails without a conversion. The last grid, whose first bad cell
    the error names, is a subgrid of every other; so when it holds the
    first bad cell of the first grid that failed, that is its own first bad
    cell, and no second walk is needed.
    """
    rows = _read_rows(path)
    bad = None  # first bad cell of the first grid that failed
    for h, r in choices:
        if len(rows) <= h or len(rows[0]) <= r or not _floats(rows[h][r:]):
            continue  # nothing left to parse, or the first grid row fails
        if bad is not None and bad[0] >= h and bad[1] >= r:
            continue  # the grid holds a known bad cell
        try:
            return _grid_values([row[r:] for row in rows[h:]] if r else rows[h:]), h, r
        except ValueError:
            bad = bad or _first_bad_cell(rows, h, r)
    if len(rows[0]) == 1 and any(c in rows[0][0].strip() for c in " \t;"):
        raise ParseError(f"{path}: row 1 is one cell with a space, tab or ';' in it; "
                         "sigclust reads comma-separated files", line=1)
    h, r = choices[-1]
    if bad is None or bad[0] < h or bad[1] < r:
        bad = _first_bad_cell(rows, h, r)
    line, column = bad[0] + 1, bad[1] + 1
    raise ParseError(
        f"{path}: non-numeric cell at row {line}, column {column}",
        line=line,
        column=column,
    )


def load_matrix(
    path,
    observations_in_rows: bool = False,
    header: str = "auto",
    row_names: str = "auto",
) -> DataMatrix:
    """Read a rectangular numeric CSV as a variables-by-observations matrix.

    Cells are read as ``float`` reads them. With ``header`` or ``row_names``
    left on "auto", the least stripping that leaves a fully numeric grid
    wins, with a warning for each strip; explicit "yes"/"no" pins the choice.
    Ragged rows and non-numeric cells raise :class:`ParseError` with 1-based
    file coordinates, as does a byte the locale's encoding cannot decode;
    NaN or infinite values parse but raise :class:`InvalidDataError`.

    A plain file (ASCII, unquoted, no blank line inside, every row as wide
    as the first) is read by numpy's C reader, the faster path; any other
    file, or one that reader rejects, is read by the csv module. Both give
    the same values, warnings and errors. The file is read in chunks and
    never held whole, so a plain file's load needs memory for the matrix,
    not for the file's text. A plain file of at least two ``_SPLIT_BYTES``
    shares is read in parts by forked processes where the platform reports
    the CPUs this process may use (Linux) and no other Python thread runs:
    one per CPU, at most one per share. That changes the speed only; a part
    whose process fails is read again here.
    """
    if header not in _STRIPS or row_names not in _STRIPS:
        raise InvalidConfigError('header and row_names must be "auto", "yes", or "no"')
    choices = [(h, r) for h in _STRIPS[header] for r in _STRIPS[row_names]]
    values, h, r = _parse_plain(path, choices) or _parse_csv(path, choices)
    if header == "auto" and h:
        _pywarnings.warn(f"{path}: treating the first row as a header")
    if row_names == "auto" and r:
        _pywarnings.warn(f"{path}: treating the first column as row names")
    if observations_in_rows:
        values = values.T
    return DataMatrix(values)


def _read_values(path, parse, expected) -> list:
    """``parse`` of each line of a one-value-per-line file but blank and
    '#' lines; a line it rejects raises a ParseError naming line and text."""
    values = []
    with _open_text(path) as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(parse(text))
            except (KeyError, ValueError):
                raise ParseError(f"{path}: line {i}: {expected}, got {text!r}", line=i) from None
    return values


def load_labels(path, n: int) -> np.ndarray:
    """Read a cluster-label file: one label (1 or 2) per line, n labels;
    blank lines and '#' comment lines are skipped."""
    labels = _read_values(path, {"1": 1, "2": 2}.__getitem__, "labels must be 1 or 2")
    if len(labels) != n:
        raise InvalidLabelsError(f"{path}: found {len(labels)} labels, expected n={n}")
    return np.asarray(labels, dtype=np.int64)


def load_eigenvalue_file(path) -> np.ndarray:
    """Read a spectrum file: one eigenvalue per line, '#' comments allowed."""
    values = _read_values(path, float, "expected a number")
    if not values:
        raise ParseError(f"{path}: no eigenvalues found", line=1)
    return np.asarray(values, dtype=np.float64)


def filter_variables(x: DataMatrix, top_k: int) -> DataMatrix:
    """Keep the ``top_k`` rows with the largest sd/mean dispersion ratio.

    Rows with positive mean are ranked by sd/mean descending; rows with
    nonpositive mean rank below all of them, ordered by sd alone. The kept
    rows stay in their original order.
    """
    if not 1 <= top_k <= x.d:
        raise InvalidConfigError(f"filter_top_k must be in [1, d={x.d}], got {top_k}")
    if top_k == x.d:
        return x
    means = x.values.mean(axis=1)
    sds = x.values.std(axis=1, ddof=1)
    positive = np.flatnonzero(means > 0)
    rest = np.flatnonzero(means <= 0)
    ranked = np.concatenate(
        [
            positive[np.argsort(-(sds[positive] / means[positive]), kind="stable")],
            rest[np.argsort(-sds[rest], kind="stable")],
        ]
    )
    keep = np.sort(ranked[:top_k])
    return DataMatrix(x.values[keep])


def _spectrum_dict(spectrum: NullSpectrum) -> dict:
    return {
        "method": spectrum.method,
        "sigma_n_sq": spectrum.sigma_n_sq,
        "tau": spectrum.tau,
        "rank_cap_l": spectrum.rank_cap_l,
        "eigenvalues": [float(v) for v in spectrum.eigenvalues],
    }


def report_to_dict(report: TestReport, manifest: RunManifest | None = None) -> dict:
    """Flatten a report (and optional manifest echo) with fixed key order.

    The timing field comes last so that byte comparisons of everything
    above it are straightforward.
    """
    if isinstance(report.spectrum_used, tuple):
        spectrum = {
            "hard": _spectrum_dict(report.spectrum_used[0]),
            "soft": _spectrum_dict(report.spectrum_used[1]),
        }
        d = report.spectrum_used[0].d
    else:
        spectrum = _spectrum_dict(report.spectrum_used)
        d = report.spectrum_used.d
    return {
        "version": __version__,
        "config": asdict(manifest) if manifest is not None else None,
        "method": report.method,
        "observed_mode": report.observed_mode,
        "d": d,
        "n_sim": report.n_sim,
        "seed": report.seed,
        "restarts_null": report.restarts_null,
        "restarts_observed": report.restarts_observed,
        "ci_observed": report.ci_observed,
        "p_empirical": report.p_empirical,
        "p_gaussian": report.p_gaussian,
        "null_mean": report.null_mean,
        "null_sd": report.null_sd,
        "warnings": list(report.warnings),
        "spectrum": spectrum,
        "null_cis": [float(v) for v in report.null_cis],
        "timing_seconds": report.timing_seconds,
    }


def _write_lines(target, lines) -> None:
    """Write ``lines``, each ended by LF, to a path or an open text stream.
    ``print`` writes the joined text in one write and its last LF in a
    second: on a stream without a buffer (``python -u``) a reader that
    leaves mid-write cuts the first short silently, and the second raises
    the BrokenPipeError."""
    with nullcontext(target) if hasattr(target, "write") else open(target, "w", newline="") as fh:
        print("\n".join(lines), file=fh)


def _write_csv(target, head, rows) -> None:
    """Write the row ``head``, then ``rows``, as CSV lines, each cell as
    ``str`` gives it: none holds a comma, a quote or a line break."""
    _write_lines(target, (",".join(map(str, row)) for row in itertools.chain([head], rows)))


def emit_report(report: TestReport, manifest: RunManifest) -> list[Path]:
    """Write the JSON report plus CSV twins into the manifest's out_dir.

    Produces report.json, null_cis.csv (one row per replication), and
    null_ci_ecdf.csv (sorted indices with empirical quantiles i/(n_sim+1)).
    Returns the written paths.
    """
    out_dir = Path(manifest.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    report_path = out_dir / "report.json"
    _write_lines(report_path, [json.dumps(report_to_dict(report, manifest), indent=2)])

    cis_path = out_dir / "null_cis.csv"
    _write_csv(cis_path, ["rep", "ci"],
               ([r, repr(float(ci))] for r, ci in enumerate(report.null_cis)))

    ecdf_path = out_dir / "null_ci_ecdf.csv"
    _write_csv(ecdf_path, ["rank", "ci", "quantile"],
               ([r, repr(float(ci)), repr(r / (report.n_sim + 1))]
                for r, ci in enumerate(np.sort(report.null_cis), start=1)))

    return [report_path, cis_path, ecdf_path]
