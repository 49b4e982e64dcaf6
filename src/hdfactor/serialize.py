"""Deterministic file output and config parsing.

All floating-point output is rendered with 17 significant digits so that
every CSV and JSON file round-trips to the exact binary value.  JSON is
rendered by a small writer of our own because the stdlib encoder offers
no control over float formatting; NaN (undefined ratio entries) maps to
null.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional

import numpy as np

from .errors import ParseError
from .estimation import FactorModel

__all__ = [
    "fmt_float",
    "write_csv",
    "dump_json",
    "model_to_dict",
    "acf_rows",
    "load_config",
]


def fmt_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


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


def _render(obj, indent: int) -> str:
    pad = "  " * indent
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
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(item, indent + 1)}" for item in obj)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_render(value, indent + 1)}"
            for key, value in obj.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_render(obj, 0) + "\n")


def _matrix_block(matrix: np.ndarray) -> dict:
    return {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "data": [float(v) for v in np.asarray(matrix, dtype=float).ravel()],  # row-major
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
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "ratios": [float(v) for v in model.ratios],
    }
    if model.method == "two-step":
        doc["r1_hat"] = int(model.r1_hat)
        doc["r2_hat"] = int(model.r2_hat)
        doc["eigenvalues_step2"] = [float(v) for v in model.eigenvalues_step2]
        doc["ratios_step2"] = [float(v) for v in model.ratios_step2]
        doc["step2_no_sharp_minimum"] = bool(model.step2_no_sharp_minimum)
    doc["loadings"] = _matrix_block(model.loadings)
    doc["factors"] = _matrix_block(model.factors)
    residuals = model.residuals
    doc["residual_summary"] = {
        "rms": float(np.sqrt((residuals**2).mean())),
        "max_abs": float(np.abs(residuals).max()),
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
    """Read a scenario/config file: JSON, or flat ``key = value`` lines.

    In the flat form, '#' starts a comment, and comma-separated values
    become lists.  Scalars are coerced to bool, int or float when they
    parse as such.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
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
