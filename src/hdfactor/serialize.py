"""Deterministic file output and config parsing.

All floating-point output is rendered with 17 significant digits so that
every CSV and JSON file round-trips to the exact binary value.  JSON is
written by a small streaming writer of our own because the stdlib encoder
offers no control over float formatting; NaN (undefined ratio entries)
and +-inf map to null.  The writer hands the file one piece at a time and
formats a list of floats (the embedded loadings and factor series) a
chunk at a time, so a wide model never exists as one string in memory.
Config files are read as UTF-8, with or without a byte-order mark.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

import numpy as np

from .errors import ParseError
from .estimation import FactorModel
from .panel import format_floats, read_text

__all__ = [
    "fmt_float",
    "write_csv",
    "dump_json",
    "model_to_dict",
    "acf_rows",
    "load_config",
]


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_float(value)


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


_FLOAT_CHUNK = 4096  # items per write when a JSON list holds only floats


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value) or math.isinf(value):
            return "null"
        return fmt_float(value)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(write, obj, pad: str) -> None:
    """Stream the JSON text of ``obj`` to ``write``; ``pad`` indents its closing bracket."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple, dict)) and not obj:
        write("{}" if isinstance(obj, dict) else "[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        write("{\n" + inner)
        for k, (key, value) in enumerate(obj.items()):
            write((sep if k else "") + json.dumps(str(key)) + ": ")
            _write_json(write, value, inner)
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        write("[\n" + inner)
        if set(map(type, obj)) == {float}:
            # Loadings and factor series: one %-format and one write per chunk
            # of floats, never the whole list as one string.  NaN and +-inf
            # come out as nan, inf and -inf, the only items that can hold an "n".
            for start in range(0, len(obj), _FLOAT_CHUNK):
                piece = format_floats(obj[start:start + _FLOAT_CHUNK], sep)
                if "n" in piece:
                    piece = sep.join("null" if "n" in item else item for item in piece.split(sep))
                write((sep if start else "") + piece)
        else:
            for k, item in enumerate(obj):
                if k:
                    write(sep)
                _write_json(write, item, inner)
        write("\n" + pad + "]")
    else:
        write(_scalar(obj))


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        _write_json(handle.write, obj, "")
        handle.write("\n")


def _matrix_block(matrix: np.ndarray) -> dict:
    return {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "data": np.asarray(matrix, dtype=float).ravel().tolist(),  # row-major
    }


def model_to_dict(model: FactorModel, *, extras: Optional[dict] = None) -> dict:
    """JSON-ready summary of a fitted model.

    Loadings and the factor series are embedded row-major with their
    dimensions.  ``extras`` lets the caller attach diagnostics such as
    variance shares.
    """
    doc = {
        "r_hat": int(model.r_hat),
        "method": model.method,
        "k0": int(model.k0),
        "R": int(model.ratio_span),
        "eigenvalues": model.eigenvalues.tolist(),
        "ratios": model.ratios.tolist(),
    }
    if model.method == "two-step":
        doc["r1_hat"] = int(model.r1_hat)
        doc["r2_hat"] = int(model.r2_hat)
        doc["eigenvalues_step2"] = model.eigenvalues_step2.tolist()
        doc["ratios_step2"] = model.ratios_step2.tolist()
        doc["step2_no_sharp_minimum"] = bool(model.step2_no_sharp_minimum)
    doc["loadings"] = _matrix_block(model.loadings)
    doc["factors"] = _matrix_block(model.factors)
    doc["residual_summary"] = {
        "rms": model.residual_rms,
        "max_abs": float(np.abs(model.residuals).max()),
    }
    if extras:
        doc.update(extras)
    return doc


def acf_rows(report) -> list:
    """Flatten an ACF report to (i, j, lag, value, band) rows."""
    rows = []
    ids = report.series_ids
    for i in range(len(ids)):
        for j in range(len(ids)):
            for lag in range(report.max_lag + 1):
                rows.append((ids[i], ids[j], lag, report.acf[i, j, lag], report.band))
    return rows


def _coerce_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_config(path) -> dict:
    """Read a UTF-8 scenario/config file: JSON, or flat ``key = value`` lines.

    In the flat form, '#' starts a comment, and comma-separated values
    become lists.  Scalars are coerced to bool, int or float when they
    parse as such.
    """
    text = read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from None
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        if "," in value:
            config[key.strip()] = [_coerce_scalar(v) for v in value.split(",")]
        else:
            config[key.strip()] = _coerce_scalar(value)
    return config
