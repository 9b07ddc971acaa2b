"""Matrix and label ingestion, variable filtering, and report emission.

Matrices arrive as rectangular numeric CSV files, optionally with a single
header row and a leading row-name column; both are auto-detected as the
least stripping that leaves a numeric grid, or pinned explicitly. A plain
file (ASCII, no quotes, no blank line inside, every row as wide as the
first) is read by numpy's C reader; every other file, and any plain file
that reader rejects, goes through the csv module, which defines the cell
syntax, the warnings and the errors for both. Reports are
written as JSON with a fixed key order so that two runs with the same seed
produce byte-identical files apart from the timing field, plus CSV twins
of the null indices for spreadsheet use.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import warnings as _pywarnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .engine import TestConfig, TestReport
from .errors import InvalidConfigError, InvalidLabelsError, ParseError
from .linalg import DataMatrix
from .spectrum import NullSpectrum

# Rows or columns each header / row-names choice may strip. Their product,
# in order, tries the least stripping first and row names before a header.
_STRIPS = {"auto": (0, 1), "yes": (1,), "no": (0,)}
# Bytes that keep a file off the C reader: the quote, and the separators
# U+001C-U+001F, which the C reader strips from a cell and float() does not.
_NOT_PLAIN = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


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


def _floats(cells) -> bool:
    """Whether ``float`` accepts every cell."""
    try:
        list(map(float, cells))
    except ValueError:
        return False
    return True


def _parse_plain(data: bytes, choices):
    """(values, h, r) read by numpy's C reader, or None to use the csv path.

    The header / row-names choice is the first whose first grid row
    ``float`` accepts; an earlier choice fails on that row in the csv path
    too. The reader then runs only on files where it agrees with the csv
    path: ASCII, no byte of ``_NOT_PLAIN``, no blank first line, and as
    many commas as lines x (width - 1). A blank line inside the data, which
    the reader skips and the csv path reports, shows as a short row count.
    """
    if not data.isascii() or any(c in data for c in _NOT_PLAIN):
        return None
    end = len(data)
    while end and data[end - 1] in b" \t\n\r\x0b\x0c":
        end -= 1  # trailing blank lines, which the csv path drops
    if not end or data[0] in b"\r\n":
        return None  # no data, or a blank first line
    lines = data.count(b"\n", 0, end) + 1
    if b"\r" in data:
        lines += data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", newline="")
    first_rows = [stream.readline().rstrip("\r\n").split(",") for _ in range(2)]
    width = len(first_rows[0])
    for h, r in choices:
        if h < lines and r < width and _floats(first_rows[h][r:]):
            break
    else:
        return None
    if data.count(b",", 0, end) != lines * (width - 1):
        return None  # a ragged row, which usecols alone would not catch
    stream.seek(0)
    try:
        values = np.loadtxt(
            itertools.islice(stream, lines), dtype=np.float64, delimiter=",",
            comments=None, ndmin=2, skiprows=h, usecols=range(r, width) if r else None,
        )
    except ValueError:
        return None
    if values.shape != (lines - h, width - r):
        return None  # the C reader skipped a blank line
    return values, h, r


def _read_rows(path, data: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.TextIOWrapper(io.BytesIO(data), newline="")))
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


def _parse_csv(path, data: bytes, choices):
    """(values, h, r) read with the csv module, or the ParseError a file gets.

    A choice whose first grid row fails, or whose grid holds a known bad
    cell, fails without a conversion. The last grid, whose first bad cell
    the error names, is a subgrid of every other; so when it holds the
    first bad cell of the first grid that failed, that is its own first bad
    cell, and no second walk is needed.
    """
    rows = _read_rows(path, data)
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
    file coordinates; NaN or infinite values parse but raise
    :class:`InvalidDataError`.

    A plain file (ASCII, unquoted, no blank line inside, every row as wide
    as the first) is read by numpy's C reader, the faster path; any other
    file, or one that reader rejects, is read by the csv module. Both give
    the same values, warnings and errors.
    """
    if header not in _STRIPS or row_names not in _STRIPS:
        raise InvalidConfigError('header and row_names must be "auto", "yes", or "no"')
    with open(path, "rb") as fh:
        data = fh.read()
    choices = [(h, r) for h in _STRIPS[header] for r in _STRIPS[row_names]]
    values, h, r = _parse_plain(data, choices) or _parse_csv(path, data, choices)
    if header == "auto" and h:
        _pywarnings.warn(f"{path}: treating the first row as a header")
    if row_names == "auto" and r:
        _pywarnings.warn(f"{path}: treating the first column as row names")
    if observations_in_rows:
        values = values.T
    return DataMatrix(values)


def load_labels(path, n: int) -> np.ndarray:
    """Read a cluster-label file: one label (1 or 2) per line, n lines."""
    labels = []
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text not in ("1", "2"):
                raise ParseError(
                    f"{path}: line {i}: labels must be 1 or 2, got {text!r}", line=i
                )
            labels.append(int(text))
    if len(labels) != n:
        raise InvalidLabelsError(
            f"{path}: found {len(labels)} labels, expected n={n}"
        )
    return np.asarray(labels, dtype=np.int64)


def load_eigenvalue_file(path) -> np.ndarray:
    """Read a spectrum file: one eigenvalue per line, '#' comments allowed."""
    values = []
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}: expected a number, got {text!r}", line=i
                ) from None
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


def emit_report(report: TestReport, manifest: RunManifest) -> list[Path]:
    """Write the JSON report plus CSV twins into the manifest's out_dir.

    Produces report.json, null_cis.csv (one row per replication), and
    null_ci_ecdf.csv (sorted indices with empirical quantiles i/(n_sim+1)).
    Returns the written paths.
    """
    out_dir = Path(manifest.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report_to_dict(report, manifest), fh, indent=2)
        fh.write("\n")

    cis_path = out_dir / "null_cis.csv"
    with open(cis_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "ci"])
        for r, ci in enumerate(report.null_cis):
            writer.writerow([r, repr(float(ci))])

    ecdf_path = out_dir / "null_ci_ecdf.csv"
    sorted_cis = np.sort(report.null_cis)
    with open(ecdf_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "ci", "quantile"])
        for r, ci in enumerate(sorted_cis, start=1):
            writer.writerow([r, repr(float(ci)), repr(r / (report.n_sim + 1))])

    return [report_path, cis_path, ecdf_path]
