"""The original cell-by-cell matrix loader, kept as the reference for
``sigclust.io.load_matrix``.

It strips every cell, then tries each (header, row-names) choice with
minimal stripping first, converting one cell at a time with ``float`` and
stopping at the first cell that fails; that cell's 1-based file
coordinates are the ones a failed load reports.
"""

import csv
import warnings as _pywarnings

import numpy as np

from sigclust.errors import InvalidConfigError, ParseError
from sigclust.linalg import DataMatrix

_TRISTATE = ("auto", "yes", "no")


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh)]
    rows = [[cell.strip() for cell in row] for row in raw]
    while rows and rows[-1] in ([], [""]):
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


def _try_parse(rows, skip_header, skip_names):
    """Parse the stripped grid to floats, or return the first bad cell."""
    r0 = 1 if skip_header else 0
    c0 = 1 if skip_names else 0
    if len(rows) <= r0 or len(rows[0]) <= c0:
        return None, (r0 + 1, c0 + 1)
    out = np.empty((len(rows) - r0, len(rows[0]) - c0))
    for i, row in enumerate(rows[r0:], start=r0):
        for j, cell in enumerate(row[c0:], start=c0):
            try:
                out[i - r0, j - c0] = float(cell)
            except ValueError:
                return None, (i + 1, j + 1)
    return out, None


def load_matrix(
    path,
    observations_in_rows: bool = False,
    header: str = "auto",
    row_names: str = "auto",
) -> DataMatrix:
    """Read a rectangular numeric CSV as a variables-by-observations matrix.

    With ``header`` or ``row_names`` left on "auto", the smallest amount of
    stripping that makes the remaining grid fully numeric wins; explicit
    "yes"/"no" pins the choice. Ragged rows and non-numeric cells raise
    :class:`ParseError` with 1-based file coordinates; NaN or infinite
    values parse but raise :class:`InvalidDataError`.
    """
    if header not in _TRISTATE or row_names not in _TRISTATE:
        raise InvalidConfigError('header and row_names must be "auto", "yes", or "no"')
    rows = _read_rows(path)

    header_options = {"auto": (False, True), "yes": (True,), "no": (False,)}[header]
    name_options = {"auto": (False, True), "yes": (True,), "no": (False,)}[row_names]
    combos = [(h, r) for h in header_options for r in name_options]
    combos.sort(key=lambda hr: hr[0] + hr[1])  # prefer minimal stripping

    failure = None
    for h, r in combos:
        values, bad = _try_parse(rows, h, r)
        if values is not None:
            if header == "auto" and h:
                _pywarnings.warn(f"{path}: treating the first row as a header")
            if row_names == "auto" and r:
                _pywarnings.warn(f"{path}: treating the first column as row names")
            if observations_in_rows:
                values = values.T
            return DataMatrix(values)
        failure = bad
    line, column = failure
    raise ParseError(
        f"{path}: non-numeric cell at row {line}, column {column}",
        line=line,
        column=column,
    )
