"""Observed-panel representation, CSV ingestion and preprocessing.

A panel is a p-variate time series of length n held series-major: row i is
series i, column t is the cross-section observed at time t.  Every
downstream routine consumes cross-sections, so the series-major layout is
fixed here and CSV orientation is resolved at load time.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, ParseError

__all__ = [
    "Panel",
    "SeasonalSpec",
    "load_csv",
    "save_csv",
    "center",
    "seasonal_demean",
]

ORIENTATIONS = ("rows-are-time", "rows-are-series")


@dataclass(frozen=True)
class Panel:
    """Immutable p x n data matrix with optional series/time labels.

    Parameters
    ----------
    values : array-like, shape (p, n)
        One row per series, one column per time point.  Entries must be
        finite; missing values are rejected rather than imputed.
    series_labels : sequence of str, optional
        Length-p labels for the series.
    time_labels : sequence of str, optional
        Length-n labels for the time points.
    """

    values: np.ndarray
    series_labels: Optional[tuple] = None
    time_labels: Optional[tuple] = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C", copy=True)
        if values.ndim != 2:
            raise DimensionError(f"panel values must be 2-D, got {values.ndim}-D")
        p, n = values.shape
        if p < 1 or n < 2:
            raise DimensionError(f"panel must be at least 1 x 2, got {p} x {n}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DomainError(
                f"panel contains a non-finite value at series {bad[0] + 1}, time {bad[1] + 1}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        for name, expected in (("series_labels", p), ("time_labels", n)):
            labels = getattr(self, name)
            if labels is not None:
                labels = tuple(str(x) for x in labels)
                if len(labels) != expected:
                    raise DimensionError(
                        f"{name} has {len(labels)} entries, expected {expected}"
                    )
                object.__setattr__(self, name, labels)

    @property
    def p(self) -> int:
        """Number of series."""
        return self.values.shape[0]

    @property
    def n(self) -> int:
        """Number of time points."""
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Panel":
        """Return a new panel with the same labels and different values."""
        return Panel(values, self.series_labels, self.time_labels)


@dataclass(frozen=True)
class SeasonalSpec:
    """Seasonality declaration: observations ``period`` apart share a season."""

    period: int

    def __post_init__(self):
        if int(self.period) != self.period or self.period < 1:
            raise DomainError(f"seasonal period must be a positive integer, got {self.period}")
        object.__setattr__(self, "period", int(self.period))


def _parse_cell(text: str, row: int, col: int) -> float:
    """Parse one CSV cell to a finite float; coordinates are 1-based."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"non-numeric cell {text!r} at row {row}, column {col}"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite cell {text!r} at row {row}, column {col}")
    return value


def read_text(path) -> str:
    """A UTF-8 text file, less any byte-order mark, with its line ends as written.

    A file that is not UTF-8 is a ParseError naming its first bad byte.
    Text readers decode in chunks and skip a byte-order mark, so the offset
    in their ``UnicodeDecodeError`` is not a file offset; on that failure
    the file is read again as bytes to find one.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            raw = handle.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from None
    raise ParseError(f"{path} is not UTF-8 text")


def _is_numeric(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _layout(first_row: Sequence[str], heads: Sequence[str], width: int, path):
    """Header row and label column of a table, from its first row and each row's first cell.

    A header row / label column is recognized only when wholly non-numeric;
    a stray non-numeric cell inside otherwise numeric data is a parse error.
    Returns ``(skip, first, row_labels, col_labels)``: the number of header
    rows, the index of the first data column, and the labels or None.
    """
    skip = 0 if any(map(_is_numeric, first_row)) else 1
    heads = heads[skip:]
    if not heads:
        raise DimensionError(f"no data rows in {path}")
    first = 0 if any(map(_is_numeric, heads)) else 1
    if first and width < 2:
        raise DimensionError(f"no data columns in {path}")
    col_labels = tuple(first_row[first:]) if skip else None
    return skip, first, tuple(heads) if first else None, col_labels


def _row_table(text: str, path):
    """``(data, row_labels, col_labels)`` of a CSV text, read row by row with ``csv``.

    Messages name a row by the file line it starts on; a ``csv`` fault is a ParseError too.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines, start = [], [], 1
    try:
        for row in reader:
            if row:  # tolerate blank lines
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DimensionError(f"empty table in {path}")
    width = len(rows[0])
    for row, line in zip(rows, lines):
        if len(row) != width:
            raise ParseError(f"ragged row {line}: expected {width} fields, got {len(row)}")
    skip, first, row_labels, col_labels = _layout(rows[0], [row[0] for row in rows], width, path)
    body, lines = rows[skip:], lines[skip:]
    data = np.empty((len(body), width - first))
    # A whole row per call, through the same float() as _parse_cell, so the
    # bits match; the per-cell loop runs only to name the first bad cell.
    try:
        for i, row in enumerate(body):
            data[i] = list(map(float, row[first:]))
        clean = np.isfinite(data).all()
    except ValueError:
        clean = False
    if not clean:
        for i, (row, line) in enumerate(zip(body, lines)):
            for j, cell in enumerate(row[first:]):
                data[i, j] = _parse_cell(cell, line, j + first + 1)
    return data, row_labels, col_labels


# numpy's reader skips \x1c-\x1f round a number as whitespace, where float()
# rejects them, and a C string ends at \x00.
_UNSAFE = "\x00\x1c\x1d\x1e\x1f"
_QUOTED = re.compile(r'"([^"]*)"')


def _unquote(field: str) -> Optional[str]:
    """``field`` as ``csv`` reads it, or None when its quotes might read otherwise."""
    if '"' not in field:
        return field
    quoted = _QUOTED.fullmatch(field)
    return quoted[1] if quoted else None


def _bulk_table(text: str, path):
    """``_row_table(text, path)``, with the numbers parsed by numpy's C reader; or None.

    ``np.loadtxt`` parses a number with ``PyOS_string_to_double``, the parser
    of ``float()``, so the bits agree.  This path takes a file only where it
    splits rows and fields exactly as ``csv`` does: one comma-separated field
    per cell, quotes only round a whole header or first-column field, no
    field over ``csv``'s size limit, and every number finite.  It returns
    None for anything else, and the row path then reads the file and names
    the fault.
    """
    if any(char in text for char in _UNSAFE):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        return None
    width = lines[0].count(",") + 1
    limit = csv.field_size_limit()
    for line in lines:
        if line.count(",") + 1 != width or (
                len(line) > limit and max(map(len, line.split(","))) > limit):
            return None
    first_row = [_unquote(field) for field in lines[0].split(",")]
    parts = [line.partition(",") for line in lines]
    heads = [_unquote(head) for head, _, _ in parts]
    if None in first_row or None in heads:
        return None
    skip, first, row_labels, col_labels = _layout(first_row, heads, width, path)
    numeric = [rest if first else head + comma + rest
               for head, (_, comma, rest) in zip(heads[skip:], parts[skip:])]
    try:
        data = np.loadtxt(numeric, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(numeric), width - first) or not np.isfinite(data).all():
        return None
    return data, row_labels, col_labels


def load_csv(path, orientation: str = "rows-are-time") -> Panel:
    """Read a rectangular numeric CSV into a Panel.

    The file may carry a single header row and/or a single leading label
    column; both are detected by non-numeric content.  Error messages name
    a cell by the file line its row starts on and its 1-based column.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8 with or without a byte-order mark, '.' decimal
        point, no thousands separators.
    orientation : {"rows-are-time", "rows-are-series"}
        How file rows map onto the panel.  The default matches the common
        convention of one time point per CSV row.
    """
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    text = read_text(path)
    data, row_labels, col_labels = _bulk_table(text, path) or _row_table(text, path)
    if orientation == "rows-are-time":
        return Panel(data.T, series_labels=col_labels, time_labels=row_labels)
    return Panel(data, series_labels=row_labels, time_labels=col_labels)


def save_csv(panel: Panel, path, orientation: str = "rows-are-time") -> None:
    """Write a panel back to CSV at full round-trip precision (17 digits)."""
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    if orientation == "rows-are-time":
        write_matrix_csv(path, panel.values.T, panel.time_labels, panel.series_labels)
    else:
        write_matrix_csv(path, panel.values, panel.series_labels, panel.time_labels)


def write_matrix_csv(path, matrix: np.ndarray, row_labels: Optional[Sequence[str]] = None,
                     col_labels: Optional[Sequence[str]] = None) -> None:
    """Write any 2-D matrix in ``save_csv``'s layout, with no panel shape check.

    A header line holds ``col_labels`` (after an empty corner cell when
    rows are labelled too); each row starts with its label when
    ``row_labels`` is given.  Values use 17 significant digits.
    """
    lines = []
    if col_labels is not None:
        header = list(col_labels)
        if row_labels is not None:
            header = [""] + header
        lines.append(",".join(header))
    for i, row in enumerate(matrix.tolist()):
        cells = format_floats(row)
        if row_labels is not None:  # a row with no values is its label alone
            cells = ",".join([row_labels[i], cells]) if row else row_labels[i]
        lines.append(cells)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def format_floats(values: Sequence[float], sep: str = ",") -> str:
    """``values`` joined by ``sep``, each to 17 significant digits, in one %-format.

    ``"%.17g" % v`` is ``format(v, ".17g")`` for every float, so NaN and
    infinities read ``nan``, ``inf`` and ``-inf``.
    """
    values = tuple(values)
    return sep.join(["%.17g"] * len(values)) % values


def center(panel: Panel) -> Panel:
    """Subtract each series' full-sample mean."""
    values = panel.values - panel.values.mean(axis=1, keepdims=True)
    return panel.with_values(values)


def seasonal_demean(panel: Panel, spec: SeasonalSpec) -> Panel:
    """Subtract per-season means from each series.

    Observation t belongs to season ``t mod period``; for each series and
    each season, the mean over all observations in that season is removed.
    With period 1 this reduces to :func:`center`; with period n every
    season holds one point and the output is identically zero.
    """
    if spec.period > panel.n:
        raise DomainError(
            f"seasonal period {spec.period} exceeds panel length {panel.n}"
        )
    values = panel.values.copy()
    for season in range(spec.period):
        cols = np.arange(season, panel.n, spec.period)
        values[:, cols] -= values[:, cols].mean(axis=1, keepdims=True)
    return panel.with_values(values)
