import json
import math

import numpy as np
import pytest

from hdfactor import Panel, ParseError, cross_acf, estimate, generate, two_step_estimate
from hdfactor.panel import fmt_float, write_csv
from hdfactor.serialize import acf_rows, dump_json, load_config, model_to_dict
from helpers import table1_scenario


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(1)
    samples = list(rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200))
    samples += [0.0, 1.0, -1.0, 1 / 3, math.pi, 5e-324, 1.7976931348623157e308]
    for value in samples:
        assert float(fmt_float(value)) == value
    assert fmt_float(float("nan")) == "nan"


def test_write_csv_round_trips(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1, 0.1), (2, -2.0 / 3.0), (3, float("nan"))]
    write_csv(path, ["index", "value"], rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,value"
    parsed = [line.split(",") for line in lines[1:]]
    assert float(parsed[0][1]) == 0.1
    assert float(parsed[1][1]) == -2.0 / 3.0
    assert math.isnan(float(parsed[2][1]))


def test_dump_json_round_trips_and_maps_nan_to_null(tmp_path):
    path = tmp_path / "doc.json"
    doc = {
        "name": "x",
        "flag": True,
        "count": 3,
        "values": [0.1, 1 / 3, float("nan")],
        "nested": {"empty_list": [], "none": None},
    }
    dump_json(path, doc)
    loaded = json.loads(path.read_text())
    assert loaded["name"] == "x"
    assert loaded["flag"] is True
    assert loaded["values"][0] == 0.1
    assert loaded["values"][1] == 1 / 3
    assert loaded["values"][2] is None
    assert loaded["nested"]["none"] is None


PINNED_DOC = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308, 0.1],
    "scalars": {"int": 7, "true": True, "false": False, "np_bool": np.bool_(True),
                "float32": np.float32(0.1), "int64": np.int64(-3), "none": None,
                "nan": float("nan"), "text": 'a"b'},
    "mixed": [1, 2.5, -0.0, None],
    "tuple": (1, (2.0, 3)),
    "array": np.array([[1.0, -2.5], [np.inf, 0.0]]),
    "rows": [[1.0, 2.0], [], [3]],
    "empty_list": [],
    "empty_dict": {},
    "nested": {"a": {"b": {"c": [1e-300]}}},
}

PINNED_TEXT = """{
  "floats": [
    null,
    null,
    null,
    -0,
    4.9406564584124654e-324,
    1.7976931348623157e+308,
    0.10000000000000001
  ],
  "scalars": {
    "int": 7,
    "true": true,
    "false": false,
    "np_bool": true,
    "float32": 0.10000000149011612,
    "int64": -3,
    "none": null,
    "nan": null,
    "text": "a\\"b"
  },
  "mixed": [
    1,
    2.5,
    -0,
    null
  ],
  "tuple": [
    1,
    [
      2,
      3
    ]
  ],
  "array": [
    [
      1,
      -2.5
    ],
    [
      null,
      0
    ]
  ],
  "rows": [
    [
      1,
      2
    ],
    [],
    [
      3
    ]
  ],
  "empty_list": [],
  "empty_dict": {},
  "nested": {
    "a": {
      "b": {
        "c": [
          1e-300
        ]
      }
    }
  }
}
"""


def test_dump_json_bytes_are_pinned(tmp_path):
    path = tmp_path / "doc.json"
    dump_json(path, PINNED_DOC)
    assert path.read_bytes() == PINNED_TEXT.encode("ascii")


@pytest.mark.parametrize("length", [4095, 4096, 4097, 8197])
def test_dump_json_chunked_float_list_matches_one_piece(tmp_path, length):
    rng = np.random.default_rng(length)
    values = (rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)).tolist()
    for index, special in zip((0, length // 2, length - 1), (np.nan, np.inf, -np.inf)):
        values[index] = float(special)
    items = ["null" if not math.isfinite(v) else format(v, ".17g") for v in values]
    expected = '{\n  "data": [\n    ' + ",\n    ".join(items) + "\n  ]\n}\n"
    path = tmp_path / "long.json"
    dump_json(path, {"data": values})
    assert path.read_text() == expected


def test_model_to_dict_one_step():
    panel, _ = generate(table1_scenario(120, 10, seed=2))
    model = estimate(panel, k0=1)
    doc = model_to_dict(model)
    assert doc["method"] == "one-step"
    assert doc["r_hat"] == model.r_hat
    assert len(doc["eigenvalues"]) == 10
    assert doc["loadings"]["rows"] == 10
    assert doc["loadings"]["cols"] == model.r_hat
    assert len(doc["loadings"]["data"]) == 10 * model.r_hat
    cols = doc["loadings"]["cols"]
    assert doc["loadings"]["data"][:cols] == [float(v) for v in model.loadings[0]]
    assert "rms" in doc["residual_summary"]
    assert "r1_hat" not in doc


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_model_to_dict_residual_rms_past_the_square_range(scale):
    panel, _ = generate(table1_scenario(200, 10, seed=10))
    base = model_to_dict(estimate(panel, k0=1))["residual_summary"]
    scaled = model_to_dict(estimate(Panel(panel.values * scale), k0=1))["residual_summary"]
    for key in ("rms", "max_abs"):
        assert math.isclose(scaled[key], base[key] * scale, rel_tol=1e-12)


def test_model_to_dict_two_step_fields():
    panel, _ = generate(table1_scenario(200, 12, seed=3))
    model = two_step_estimate(panel, k0=1, r1_override=1)
    doc = model_to_dict(model, extras={"note": 1})
    assert doc["method"] == "two-step"
    assert doc["r1_hat"] == 1
    assert doc["r2_hat"] == model.r2_hat
    assert isinstance(doc["step2_no_sharp_minimum"], bool)
    assert len(doc["ratios_step2"]) == model.ratio_span
    assert doc["note"] == 1


def test_acf_rows_schema():
    series = np.random.default_rng(4).standard_normal((2, 50))
    report = cross_acf(series, 3, series_ids=["a", "b"])
    rows = acf_rows(report)
    assert len(rows) == 2 * 2 * 4
    first = rows[0]
    assert first[0] == "a" and first[1] == "a" and first[2] == 0
    assert abs(first[3] - 1.0) < 1e-12


def test_load_config_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text('{"study": "table1", "n_grid": [50, 100], "seed": 7}')
    config = load_config(path)
    assert config["study"] == "table1"
    assert config["n_grid"] == [50, 100]


def test_load_config_key_value(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# comment line\n"
        "study = ratio-trace\n"
        "n = 200\n"
        "noise_var = 1.5\n"
        "deltas = 0.0, 0.5\n"
        "flag = true\n"
    )
    config = load_config(path)
    assert config["study"] == "ratio-trace"
    assert config["n"] == 200
    assert config["noise_var"] == 1.5
    assert config["deltas"] == [0.0, 0.5]
    assert config["flag"] is True


@pytest.mark.parametrize("text", ["007", "1e3", "TRUE"])
def test_load_config_keeps_a_flat_id_as_its_text(tmp_path, text):
    # A flat id names the study in result.json and cells.csv as written.
    path = tmp_path / "scenario.cfg"
    path.write_text(f"id = {text}\nseed = 007\n")
    assert load_config(path) == {"id": text, "seed": 7}


def test_load_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(ParseError):
        load_config(path)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{broken")
    with pytest.raises(ParseError):
        load_config(bad_json)


def test_load_config_reads_a_byte_order_mark(tmp_path):
    bom = b"\xef\xbb\xbf"
    path = tmp_path / "scenario.json"
    path.write_bytes(bom + b'{"study": "table1", "seed": 7}')
    assert load_config(path) == {"study": "table1", "seed": 7}
    path = tmp_path / "scenario.cfg"
    path.write_bytes(bom + b"study = table1\nseed = 7\n")
    assert load_config(path) == {"study": "table1", "seed": 7}


def test_load_config_rejects_non_utf8_with_offset(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"study = table1\nid = caf\xe9\n")
    with pytest.raises(ParseError, match=r"latin1\.cfg is not UTF-8 text: byte 0xe9 at offset 23$"):
        load_config(path)
