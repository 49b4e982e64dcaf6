"""Observed-panel representation, CSV input and output, and preprocessing.

A panel is a p-variate time series of length n held series-major: row i is
series i, column t is the cross-section observed at time t.  Every
downstream routine consumes cross-sections, so the series-major layout is
fixed here and CSV orientation is resolved at load time.  The command
line reads CSVs through ``load_csv_cached``, which keeps each parsed table
in a per-user cache so that a file is parsed once.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, HDFactorError, ParseError, _integer_in

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
        object.__setattr__(self, "period", _integer_in("seasonal period", self.period, 1))


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
    """
    with open(path, "rb") as handle:
        return _decode(handle.read(), path)


def _decode(raw: bytes, path) -> str:
    """``read_text`` of a file whose bytes are ``raw``."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The codec counts from after the byte-order mark it skips.
        offset = exc.start
        if raw.startswith(codecs.BOM_UTF8):
            offset += len(codecs.BOM_UTF8)
        raise ParseError(
            f"{path} is not UTF-8 text: byte 0x{raw[offset]:02x} at offset {offset}"
        ) from None


def _is_numeric(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _layout(first_row: Sequence[str], heads: Sequence[str], width: int, path):
    """Header row and label column of a table, from its first row and each row's first cell.

    An empty first cell in a table two or more columns wide marks both, as
    ``save_csv``, R's ``write.csv`` and pandas' ``to_csv`` frame labels.
    Otherwise each is recognized only when wholly non-numeric; a stray
    non-numeric cell inside otherwise numeric data is a parse error.
    Returns ``(skip, first, row_labels, col_labels)``: the number of header
    rows, the index of the first data column, and the labels or None.
    """
    corner = width > 1 and first_row[0] == ""
    skip = 1 if corner or not any(map(_is_numeric, first_row)) else 0
    heads = heads[skip:]
    if not heads:
        raise DimensionError(f"no data rows in {path}")
    first = 1 if corner or not any(map(_is_numeric, heads)) else 0
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
    # Each row is parsed whole, through the same float() as _parse_cell, so
    # the bits match; only a row holding a bad cell is re-read cell by cell,
    # to name its first bad cell.
    for i, (row, line) in enumerate(zip(body, lines)):
        try:
            data[i] = list(map(float, row[first:]))
            if np.isfinite(data[i]).all():
                continue
        except ValueError:
            pass
        for j, cell in enumerate(row[first:]):
            data[i, j] = _parse_cell(cell, line, j + first + 1)
    return data, row_labels, col_labels


# numpy's reader skips \x1c-\x1f round a number as whitespace, where float()
# rejects them, and a C string ends at \x00.
_UNSAFE = "\x00\x1c\x1d\x1e\x1f"
_QUOTED = re.compile(r'"([^"]*)"')
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


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
    column, detected by non-numeric content or an empty first cell.  Error
    messages name a cell by the file line its row starts on and its 1-based column.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8 with or without a byte-order mark, '.' decimal
        point, no thousands separators.
    orientation : {"rows-are-time", "rows-are-series"}
        How file rows map onto the panel.  The default matches the common
        convention of one time point per CSV row.
    """
    return _load(path, orientation, cached=False)


def load_csv_cached(path, orientation: str = "rows-are-time") -> Panel:
    """``load_csv(path, orientation)``, with the parsed table kept in a per-user cache.

    The command line reads its panels through this.  An entry is keyed by
    the SHA-256 of the file's bytes and of the parser (numpy's and
    Python's versions and this module's source), so a hit returns the
    bits a parse would.  Entries live in ``$XDG_CACHE_HOME/hdfactor/panels``,
    or ``~/.cache/hdfactor/panels``; the newest ``CACHE_ENTRIES`` are kept.
    A cache that cannot be read or written is a miss, never an error: the
    file is then parsed as ``load_csv`` parses it, with the same messages.
    """
    return _load(path, orientation, cached=True)


def _load(path, orientation: str, cached: bool) -> Panel:
    """The Panel of the CSV file at ``path``; ``cached`` reads the table through the cache."""
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    with open(path, "rb") as handle:
        raw = handle.read()
    entry = _cache_entry(raw) if cached else None
    table = None if entry is None else _read_entry(entry)
    if table is not None:
        with contextlib.suppress(HDFactorError):  # a table that is no panel is a miss
            return Panel(*_oriented(orientation, *table))
    text = _decode(raw, path)
    del raw  # the file's bytes go before the parse
    table = _bulk_table(text, path) or _row_table(text, path)
    panel = Panel(*_oriented(orientation, *table))
    if entry is not None:
        _write_entry(entry, table)
    return panel


def _oriented(orientation: str, matrix: np.ndarray, row_labels, col_labels):
    """A table's (matrix, row labels, column labels) as a panel's (values, series labels,
    time labels), and a panel's as a table's: the mapping is its own inverse."""
    if orientation == "rows-are-time":
        return matrix.T, col_labels, row_labels
    return matrix, row_labels, col_labels


CACHE_ENTRIES = 16
# Faults of the cache's own files and directory: a read fault is a miss, a
# write fault leaves no entry.
_CACHE_FAULTS = (OSError, ValueError)


def _cache_entry(raw: bytes) -> Optional[Path]:
    """The cache file of a CSV file whose bytes are ``raw``; None when there is no cache.

    ``$XDG_CACHE_HOME`` counts only when absolute, as the XDG base
    directory spec says; without it or an absolute home there is no cache.
    """
    import hashlib  # only cached reads pay for loading OpenSSL

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    try:
        parser = f"{np.__version__}\0{sys.version}\0".encode() + Path(__file__).read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(hashlib.sha256(parser).digest())
    key.update(raw)
    return Path(base, "hdfactor", "panels", f"{key.hexdigest()}.npy")


def _check_private(directory: Path) -> None:
    """OSError unless this user owns ``directory`` and no one else may write to it."""
    info = directory.stat()
    if (hasattr(os, "getuid") and info.st_uid != os.getuid()) or info.st_mode & 0o022:
        raise OSError(f"{directory} is writable by other users")


def _read_entry(entry: Path):
    """The table stored at ``entry``, whose mtime a hit refreshes; None on any fault."""
    import json  # like hashlib, loaded only by cached reads

    try:
        _check_private(entry.parent)
        # np.load's own .npy reader: np.load itself would also open a zip file.
        with open(entry, "rb") as handle:
            data = np.lib.format.read_array(handle, allow_pickle=False)
            labels = json.loads(handle.read())
    except (*_CACHE_FAULTS, RecursionError):  # label text nested past the recursion limit
        return None
    # Panel checks the table's shape and the label counts, but would convert
    # another dtype, or a label that is no str, silently.
    if not (data.dtype == np.float64 and isinstance(labels, list) and len(labels) == 2
            and all(map(_is_label_slot, labels))):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return data, *labels


def _is_label_slot(names) -> bool:
    """Whether a label slot read back from an entry is None or a list of strings."""
    return names is None or (isinstance(names, list)
                             and all(isinstance(name, str) for name in names))


def _write_entry(entry: Path, table) -> None:
    """Store ``table`` at ``entry`` through a temp file, then keep the newest entries only."""
    import json  # like hashlib, loaded only by cached reads

    data, row_labels, col_labels = table
    labels = json.dumps([row_labels, col_labels]).encode()
    temp = entry.with_name(f"{entry.stem}.{os.getpid()}.tmp")
    with contextlib.suppress(*_CACHE_FAULTS):
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        _check_private(entry.parent)
        try:
            with open(temp, "xb") as handle:
                np.save(handle, data, allow_pickle=False)
                handle.write(labels)  # an entry is a .npy table, then its labels' JSON
            os.replace(temp, entry)
        finally:
            temp.unlink(missing_ok=True)
        entries = sorted(entry.parent.iterdir(), key=lambda path: path.stat().st_mtime_ns)
        for old in entries[:-CACHE_ENTRIES]:
            old.unlink(missing_ok=True)


def save_csv(panel: Panel, path, orientation: str = "rows-are-time") -> None:
    """Write a panel back to CSV at full round-trip precision (17 digits)."""
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}, got {orientation!r}")
    values, row_labels, col_labels = _oriented(orientation, panel.values, panel.series_labels,
                                               panel.time_labels)
    # A header over a label column starts with an empty corner cell.
    header = None if col_labels is None else [""] * (row_labels is not None) + list(col_labels)
    write_csv(path, header, matrix_rows(values, row_labels))


def matrix_rows(matrix: np.ndarray, labels: Optional[Sequence[str]] = None):
    """``write_csv`` rows of a 2-D matrix: each row's values as one cell, after its label if any."""
    return ((row,) for row in matrix) if labels is None else zip(labels, matrix)


def write_csv(path, header: Optional[Iterable], rows: Iterable[Iterable]) -> None:
    """Write a CSV file one row at a time: ``header`` unless None, then ``rows``.

    Every CSV the package writes goes through here.  A 1-D array cell is its
    floats, one field each, in one ``"%.17g"`` %-format; another number is
    ``fmt_number``'s.  A str holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted
    as ``csv.writer`` quotes it, so ``load_csv`` reads each label back.
    """
    _unlink_to_rewrite(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for row in rows if header is None else itertools.chain([header], rows):
            handle.write(",".join(_fields(row)) + "\n")


def _unlink_to_rewrite(path) -> None:
    """Remove ``path`` if it is a writable regular file with one link, so a writer makes a new one.

    On ext4, a file truncated and written again is flushed to the disk when
    it is closed, which costs tens of milliseconds; a new file is not.
    Removing the old file first, rather than writing over it and truncating
    the rest, also means a failed write never leaves new bytes in front of
    old ones.  Any other path (a symlink, a file with another link, a FIFO,
    a device, a file this process may not write, or a file it may not
    remove) is left to the writer's ``open``, which writes through it or
    refuses it as it always did.
    """
    with contextlib.suppress(OSError):
        info = os.lstat(path)
        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)


def _fields(row: Iterable):
    for cell in row:
        if isinstance(cell, np.ndarray):
            if cell.size:
                yield format_floats(cell.tolist())
        elif isinstance(cell, str):
            yield '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell
        else:
            yield fmt_number(cell)


def fmt_number(value) -> str:
    """A number as CSV and JSON write it: ``true``/``false``, an int's digits, or 17 digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_float(value)


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def format_floats(values: Sequence[float], sep: str = ",") -> str:
    """``values`` joined by ``sep``, each to 17 significant digits, in one %-format.

    ``"%.17g" % v`` is ``format(v, ".17g")`` for every float, so NaN and
    infinities read ``nan``, ``inf`` and ``-inf``.
    """
    return sep.join(["%.17g"] * len(values)) % tuple(values)


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
