"""Deterministic file output and config parsing.

All floating-point output is rendered with 17 significant digits so that
every CSV and JSON file round-trips to the exact binary value.  CSV goes
through ``panel.write_csv``.  JSON is written by a small streaming writer
of our own because the stdlib encoder offers no control over float
formatting; a number reads as in CSV (``panel.fmt_number``), save NaN
(undefined ratio entries) and +-inf, which map to null.  The writer hands
the file one piece at a time, a list of floats (the embedded loadings and
factor series) in one %-format, so the document never exists as one
string in memory.
Config files are read as UTF-8, with or without a byte-order mark.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .errors import ParseError
from .estimation import FactorModel
from .panel import _unlink_to_rewrite, fmt_number, format_floats, read_text

__all__ = [
    "dump_json",
    "model_to_dict",
    "acf_rows",
    "load_config",
]


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "null"
    if isinstance(obj, (int, float, np.bool_, np.integer, np.floating)):
        return fmt_number(obj)
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
            # Loadings and factor series: one %-format and one write.  NaN and
            # +-inf come out as nan, inf and -inf, the only items that can hold an "n".
            text = format_floats(obj, sep)
            if "n" in text:
                text = sep.join("null" if "n" in item else item for item in text.split(sep))
            write(text)
        else:
            for k, item in enumerate(obj):
                if k:
                    write(sep)
                _write_json(write, item, inner)
        write("\n" + pad + "]")
    else:
        write(_scalar(obj))


def dump_json(path, obj) -> None:
    _unlink_to_rewrite(path)
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
    ids, lags = report.series_ids, range(report.max_lag + 1)
    return [(a, b, lag, report.acf[i, j, lag], report.band)
            for i, a in enumerate(ids) for j, b in enumerate(ids) for lag in lags]


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
    parse as such.  ``id`` is neither split nor coerced: it is its text.
    """
    text = read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ParseError(f"invalid JSON in {path}: {exc}") from None
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "id":  # an id is one label, as written: commas, digits and all
            config[key] = value
        elif "," in value:
            config[key] = [_coerce_scalar(v) for v in value.split(",")]
        else:
            config[key] = _coerce_scalar(value)
    return config
