import argparse
import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hdfactor
from hdfactor import Panel, Scenario, _openblas, cli, estimate, generate, load_csv, save_csv
from helpers import STUDY_INPUT_FAULTS, s1_scenario, s3_scenario, table1_scenario


def run_cli(*args, env_extra=None, cwd=None):
    """Run ``python -m hdfactor``; an ``env_extra`` value of None unsets that variable."""
    env = dict(os.environ)
    for key, value in (env_extra or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run(
        [sys.executable, "-m", "hdfactor", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def write_panel_csv(tmp_path, n=300, p=12, seed=8, name="panel.csv"):
    panel, _ = generate(table1_scenario(n, p, seed=seed))
    path = tmp_path / name
    save_csv(panel, path, "rows-are-time")
    return path, panel


def test_estimate_writes_outputs_and_matches_library(tmp_path):
    path, panel = write_panel_csv(tmp_path)
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--k0", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "model.json").read_text())
    expected = estimate(panel, k0=1)
    assert doc["r_hat"] == expected.r_hat
    assert "r_hat =" in proc.stdout

    eig_lines = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert eig_lines[0] == "index,lambda"
    values = [float(line.split(",")[1]) for line in eig_lines[1:]]
    np.testing.assert_allclose(values, expected.eigenvalues, rtol=1e-15)

    ratio_lines = (out / "ratios.csv").read_text().strip().splitlines()
    assert ratio_lines[0] == "index,ratio"
    assert len(ratio_lines) - 1 == expected.ratio_span


def test_estimate_missing_file_exits_2(tmp_path):
    proc = run_cli("estimate", tmp_path / "absent.csv", "--out", tmp_path)
    assert proc.returncode == 2
    assert "absent.csv" in proc.stderr


def test_estimate_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("1,2\n3,oops\n5,6\n")
    proc = run_cli("estimate", path, "--out", tmp_path)
    assert proc.returncode == 2
    assert "row 2" in proc.stderr


def test_estimate_on_a_label_column_alone_exits_2(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("a\nb\nc\n")
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == f"hdfactor: error: no data columns in {path}\n"
    assert not out.exists()


def test_estimate_domain_error_exits_1(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=20, p=4)
    proc = run_cli("estimate", path, "--k0", 50, "--out", tmp_path)
    assert proc.returncode == 1


def test_estimate_panel_of_constant_series_exits_1(tmp_path):
    # 0.1 has no exact mean, so centring leaves roundoff the ratio rule would count.
    path = tmp_path / "constant.csv"
    save_csv(Panel(np.full((6, 100), 0.1)), path, "rows-are-time")
    proc = run_cli("estimate", path, "--k0", 1, "--out", tmp_path / "out")
    assert proc.returncode == 1
    assert "the panel has zero variance" in proc.stderr


def test_bad_flags_exit_3(tmp_path):
    assert run_cli("estimate").returncode == 3
    assert run_cli("no-such-command").returncode == 3
    path, _ = write_panel_csv(tmp_path, n=40, p=4)
    assert run_cli("estimate", path, "--orientation", "sideways").returncode == 3


def test_estimate_optional_dumps_and_variants(tmp_path):
    path, panel = write_panel_csv(tmp_path, n=120, p=6, seed=12)
    out = tmp_path / "dumps"
    proc = run_cli("estimate", path, "--k0", 1, "--out", out,
                   "--dump-loadings", "--dump-factors", "--appendix-centering")
    assert proc.returncode == 0, proc.stderr
    loadings = load_csv(out / "loadings.csv", "rows-are-series")
    doc = json.loads((out / "model.json").read_text())
    assert loadings.values.shape == (6, doc["r_hat"])
    factors = load_csv(out / "factors.csv", "rows-are-time")
    assert factors.values.shape == (doc["r_hat"], 120)


def _csv_matrix(path):
    return np.array([[float(cell) for cell in line.split(",")]
                     for line in path.read_text().splitlines()])


def test_estimate_dumps_a_one_factor_fit(tmp_path):
    panel, _ = generate(s1_scenario(150, 30, seed=4))
    path = tmp_path / "panel.csv"
    save_csv(panel, path, "rows-are-time")
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--out", out, "--dump-loadings", "--dump-factors")
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "model.json").read_text())["r_hat"] == 1
    expected = estimate(panel)
    np.testing.assert_allclose(_csv_matrix(out / "loadings.csv"), expected.loadings,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(_csv_matrix(out / "factors.csv"), expected.factors.T,
                               rtol=1e-12, atol=1e-12)


def test_dumped_matrices_keep_labels_that_need_quotes(tmp_path):
    panel, _ = generate(s1_scenario(150, 30, seed=4))
    panel = Panel(panel.values, series_labels=[f'GDP, "real"\n{i}' for i in range(panel.p)],
                  time_labels=[f"2020,{t}" for t in range(panel.n)])
    path = tmp_path / "panel.csv"
    save_csv(panel, path, "rows-are-time")
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--out", out, "--dump-loadings", "--dump-factors")
    assert proc.returncode == 0, proc.stderr
    r_hat = json.loads((out / "model.json").read_text())["r_hat"]
    assert r_hat >= 1
    for name, labels in (("loadings.csv", panel.series_labels),
                         ("factors.csv", panel.time_labels)):
        with open(out / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[0] for row in rows] == list(labels)
        assert {len(row) for row in rows} == {r_hat + 1}


def test_two_step_dumps_one_first_pass_factor_and_none_after(tmp_path):
    # A noiseless one-factor panel has rank one: the second pass finds nothing.
    panel, _ = generate(replace(s1_scenario(150, 30, seed=4), noise_var=0.0))
    path = tmp_path / "panel.csv"
    save_csv(panel, path, "rows-are-time")
    out = tmp_path / "out"
    proc = run_cli("two-step", path, "--out", out, "--dump-loadings", "--dump-factors")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "model.json").read_text())
    assert (doc["r1_hat"], doc["r2_hat"]) == (1, 0)
    assert _csv_matrix(out / "loadings.csv").shape == (30, 1)
    assert _csv_matrix(out / "factors.csv").shape == (150, 1)


def test_estimate_with_seasonal_period(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=120, p=6, seed=13)
    proc = run_cli("estimate", path, "--k0", 1, "--seasonal-period", 12,
                   "--out", tmp_path / "seasonal")
    assert proc.returncode == 0, proc.stderr


def test_two_step_writes_both_passes(tmp_path):
    path, panel = write_panel_csv(tmp_path, n=400, p=16, seed=9)
    out = tmp_path / "out"
    proc = run_cli("two-step", path, "--k0", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    for name in ("ratios_pass1.csv", "ratios_pass2.csv",
                 "eigenvalues_pass1.csv", "eigenvalues_pass2.csv"):
        assert (out / name).exists()
    doc = json.loads((out / "model.json").read_text())
    assert doc["method"] == "two-step"
    assert doc["r_hat"] == doc["r1_hat"] + doc["r2_hat"]


def test_fit_summary_prints_each_ratio_in_full(tmp_path):
    # The ratio that picks r_hat = 2 here is about 4e-11; cut to eight
    # characters it used to print as 3.854501, the look of the largest ratio.
    scenario = Scenario(n=200, p=10, r=2, deltas=(0, 0), ar_coeffs=(0.9, -0.8),
                        noise_var=1e-8, seed=1)
    path = tmp_path / "panel.csv"
    save_csv(generate(scenario)[0], path, "rows-are-time")
    proc = run_cli("estimate", path, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    model = estimate(load_csv(path, "rows-are-time"))
    assert model.r_hat == 2
    label, shown = proc.stdout.splitlines()[-1].split(": ", 1)
    assert label == "leading eigenvalue ratios"
    pairs = [item.split(":") for item in shown.split()]
    assert [int(i) for i, _ in pairs] == list(range(1, min(8, model.ratios.size) + 1))
    for i, value in pairs:
        want = model.ratios[int(i) - 1]
        if np.isnan(want):
            assert value == "nan"
        else:
            assert abs(float(value) - want) <= 1e-5 * abs(want), (i, value, want)


def test_two_step_full_rank_override_reports_empty_second_pass(tmp_path):
    # r1 = 49 is the rank of the centred 50 x 120 panel: nothing is left.
    path, _ = write_panel_csv(tmp_path, n=50, p=120, seed=66)
    out = tmp_path / "out"
    proc = run_cli("two-step", path, "--k0", 1, "--r1", 49, "--out", out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "model.json").read_text())
    assert (doc["r1_hat"], doc["r2_hat"], doc["r_hat"]) == (49, 0, 49)
    assert (doc["loadings"]["rows"], doc["loadings"]["cols"]) == (120, 49)
    assert doc["step2_no_sharp_minimum"] is True


def test_import_loads_no_third_party_package_but_numpy(tmp_path):
    # The library loads on first use, so use a public name and run a fit
    # before listing what was imported.
    path, _ = write_panel_csv(tmp_path, n=60, p=8)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import hdfactor, hdfactor.cli; "
         "hdfactor.Panel; "
         f"assert hdfactor.cli.main(['estimate', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
         "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
         "print(sorted(new - set(sys.stdlib_module_names)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "['hdfactor', 'numpy']"


_IMPORTS = """
import json, sys
before = set(sys.modules)
from hdfactor import cli
cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("argv, absent", [
    (["--version"], ["hashlib", "hdfactor.panel", "numpy"]),
    (["estimate", "{csv}", "--out", "{out}"], ["hdfactor.diagnostics", "hdfactor.simulation"]),
], ids=["version", "estimate"])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, absent):
    # The panel cache's hashlib, and the modules of commands not run, stay unloaded.
    path, _ = write_panel_csv(tmp_path, n=60, p=8)
    argv = [arg.format(csv=path, out=tmp_path / "out") for arg in argv]
    proc = subprocess.run([sys.executable, "-c", _IMPORTS, *argv], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "hdfactor.cli" in loaded
    assert not set(absent) & set(loaded), loaded


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(hdfactor.__file__).resolve().parent
    with open(root.parent.parent / "pyproject.toml", "rb") as handle:
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                    for spec in tomllib.load(handle)["project"]["dependencies"]}
    imported = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) <= declared


def test_the_version_is_stated_once():
    # pyproject.toml reads the version from the package, which states it.
    tomllib = pytest.importorskip("tomllib")
    root = Path(hdfactor.__file__).resolve().parent
    with open(root.parent.parent / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hdfactor.__version__"}


def test_the_console_script_runs_the_entry_that_python_m_runs():
    # `hdfactor` and `python -m hdfactor` both start through cli.run, so
    # both start OpenBLAS at one thread and exit the same way.
    tomllib = pytest.importorskip("tomllib")
    root = Path(hdfactor.__file__).resolve().parent
    with open(root.parent.parent / "pyproject.toml", "rb") as handle:
        script = tomllib.load(handle)["project"]["scripts"]["hdfactor"]
    tree = ast.parse((root / "__main__.py").read_text())
    bound = {alias.asname or alias.name: f"hdfactor.{node.module}:{alias.name}"
             for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    called = [bound.get(node.value.func.id) for node in tree.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)]
    assert called == [script] == ["hdfactor.cli:run"]


def test_every_option_has_help():
    parser = cli.build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    silent = [(name, action.option_strings or action.dest)
              for name, sub in commands.choices.items()
              for action in sub._actions if action.dest != "help" and not action.help]
    assert silent == []


def test_diagnose_outputs(tmp_path):
    path, panel = write_panel_csv(tmp_path, n=500, p=10, seed=10)
    series = Panel(panel.values[:1], time_labels=panel.time_labels)
    upath = tmp_path / "u.csv"
    save_csv(series, upath, "rows-are-time")
    out = tmp_path / "diag"
    proc = run_cli(
        "diagnose", path, "--k0", 1, "--max-lag", 10,
        "--directions", "4,5", "--project", upath, "--out", out,
    )
    assert proc.returncode == 0, proc.stderr
    acf_lines = (out / "acf.csv").read_text().strip().splitlines()
    assert acf_lines[0] == "i,j,lag,value,band"
    assert (out / "residual_acf.csv").exists()
    shares = (out / "variance_explained.csv").read_text().strip().splitlines()
    assert shares[0] == "factor,fraction"
    doc = json.loads((out / "model.json").read_text())
    assert "variance_explained" in doc
    ratio = doc["projection_residual_ratio"]
    assert 0.0 <= ratio <= 1.0
    assert f"{ratio:.3f}"[:4] in proc.stdout or str(ratio) in proc.stdout


# sha256 of every file `diagnose` writes for the seeded panel below,
# computed while fits and diagnostics each formed their own lag
# autocovariances.  The two runs cover both centrings and both fit commands.
DIAGNOSE_RUNS = {
    "one-step": (("--directions", "4,5", "--project", "u.csv"), {
        "acf.csv":
            "6f6e1ef064d8c1b4450e02898b328d8a5738e58ab448c53431ddff29bc461a57",
        "model.json":
            "5a15a0a8e3d8c0e505f4471a6357cabe9d2ba4c886f11f04ceace9db9f7280ae",
        "residual_acf.csv":
            "42b19737864c734f700032f44ed3cee82208bd1640c2faf4ca8878d6010ad550",
        "variance_explained.csv":
            "e89d2af89de1e659ea4a336a00aabbb01907ee4bf6ffc666f435d3455f05accf",
    }),
    "two-step": (("--two-step", "--appendix-centering", "--directions", "9,10"), {
        "acf.csv":
            "2a4230952803e0b9c7e0b388f4df23df8ed16f4bfc5e760ea2f7c4e367ac98bd",
        "model.json":
            "5760801d9582f4740db69c7cf9627329a40123ca8db9ca49148febfa8b5ac033",
        "residual_acf.csv":
            "ba964738d528460eb85a4d3aa1df8657877287103ab9bec3177cde36834b646e",
        "variance_explained.csv":
            "92c8ea970073fec859ae8c5c52b0e6e14ac5793e23ae3234a3cc4d6723f55159",
    }),
}


@pytest.mark.parametrize("name", sorted(DIAGNOSE_RUNS))
def test_diagnose_output_bytes_are_pinned(tmp_path, name):
    flags, digests = DIAGNOSE_RUNS[name]
    path, panel = write_panel_csv(tmp_path, n=200, p=10, seed=10)
    save_csv(Panel(panel.values[:1], time_labels=panel.time_labels), tmp_path / "u.csv",
             "rows-are-time")
    out = tmp_path / "out"
    proc = run_cli("diagnose", path, "--max-lag", 6, *flags, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == digests


def test_estimate_rejects_a_ratio_span_on_one_series_with_exit_1(tmp_path):
    # A span lies in [1, p-1], which is empty for p = 1, as for any panel.
    path = tmp_path / "one.csv"
    save_csv(Panel(np.random.default_rng(3).standard_normal((1, 50))), path)
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--max-ratio-index", 99, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == ("hdfactor: error: ratio span must be an integer in [1, p-1] = [1, 0], "
                           "got 99\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_diagnose_rejects_factor_direction_with_exit_1(tmp_path):
    path, panel = write_panel_csv(tmp_path, n=300, p=10, seed=11)
    out = tmp_path / "out"
    proc = run_cli("diagnose", path, "--k0", 1, "--directions", "1", "--out", out)
    assert proc.returncode == 1
    r_hat = estimate(panel, k0=1).r_hat
    assert proc.stderr == ("hdfactor: error: direction 1 is a factor direction "
                           f"(r_hat = {r_hat}), not a residual one\n")
    # Every check runs before diagnose writes or prints anything.
    assert proc.stdout == ""
    assert not out.exists()


def test_diagnose_rejects_a_repeated_direction_with_exit_1(tmp_path):
    path, panel = write_panel_csv(tmp_path, n=300, p=10, seed=11)
    assert estimate(panel, k0=1).r_hat < 4
    out = tmp_path / "out"
    proc = run_cli("diagnose", path, "--k0", 1, "--directions", "4,4", "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "hdfactor: error: directions repeat direction 4\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_diagnose_rejects_a_multi_series_projection_and_writes_nothing(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=300, p=12, seed=11)
    out = tmp_path / "out"
    proc = run_cli("diagnose", path, "--k0", 1, "--project", path, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "hdfactor: error: projection input must hold one series, got 12\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_diagnose_rejects_direction_beyond_computed_ones_with_exit_1(tmp_path):
    # A wide fit (p > n) holds min(p, n) = 50 eigen-directions.
    path, _ = write_panel_csv(tmp_path, n=50, p=120, seed=12)
    for direction in (51, 100):
        proc = run_cli("diagnose", path, "--k0", 1, "--directions", direction, "--out", tmp_path)
        assert proc.returncode == 1
        assert "eigen-directions" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_diagnose_non_integer_direction_is_a_bad_flag_exit_3(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=300, p=10, seed=11)
    proc = run_cli("diagnose", path, "--k0", 1, "--directions", "3,x", "--out", tmp_path)
    assert proc.returncode == 3
    assert "--directions" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_estimate_overflowing_panel_gives_the_unit_scale_count(tmp_path):
    # The pooled matrix grows with the fourth power of the data, so it would
    # overflow at this scale; the fit rescales the panel by a power of two.
    panel, _ = generate(table1_scenario(60, 8, seed=13))
    counts = []
    for name, scale in (("unit", 1.0), ("huge", 1e80)):
        path = tmp_path / f"{name}.csv"
        save_csv(Panel(panel.values * scale), path, "rows-are-time")
        proc = run_cli("estimate", path, "--k0", 1, "--out", tmp_path / name)
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads((tmp_path / name / "model.json").read_text())["r_hat"])
    assert counts[0] == counts[1] == estimate(panel, k0=1).r_hat


def _diagnose_at_scale(tmp_path, scale, *flags):
    """Output directory of ``diagnose --project`` on the seed-10 (200, 10) panel, times scale.

    The projected series is the panel's first series, times the same scale.
    """
    panel, _ = generate(table1_scenario(200, 10, seed=10))
    run = tmp_path / f"x{scale:g}"
    run.mkdir()
    for name, values in (("panel.csv", panel.values), ("u.csv", panel.values[:1])):
        save_csv(Panel(values * scale, time_labels=panel.time_labels), run / name,
                 "rows-are-time")
    proc = run_cli("diagnose", "panel.csv", "--k0", 1, "--max-lag", 5, "--project", "u.csv",
                   *flags, "--out", "out", cwd=run)
    assert proc.returncode == 0, proc.stderr
    return run / "out"


def _projection_ratio(out):
    return json.loads((out / "model.json").read_text())["projection_residual_ratio"]


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_diagnose_projection_ratio_does_not_depend_on_scale(tmp_path, scale):
    # Squares of the series and of the factors overflow or underflow here.
    ratio = _projection_ratio(_diagnose_at_scale(tmp_path, scale))
    assert ratio == pytest.approx(_projection_ratio(_diagnose_at_scale(tmp_path, 1.0)), rel=1e-12)


@pytest.mark.parametrize("scale", [1e80, 1e160, 1e-170])
def test_diagnose_past_double_range_matches_the_unit_panel(tmp_path, scale):
    # At 1e80 the reported eigenvalues overflow; at the others, squares of the panel too.
    outs = [_diagnose_at_scale(tmp_path, s, "--directions", 3) for s in (scale, 1.0)]
    assert _projection_ratio(outs[0]) == pytest.approx(_projection_ratio(outs[1]), rel=1e-12)
    for name, column in (("acf.csv", 3), ("residual_acf.csv", 3), ("variance_explained.csv", 1)):
        values, expected = ([float(line.split(",")[column])
                             for line in (out / name).read_text().splitlines()[1:]]
                            for out in outs)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-14, err_msg=name)


def test_diagnose_rejects_a_numerically_null_direction_with_exit_1(tmp_path):
    # The centred panel has rank n - 1 = 99, so direction 100's eigenvalue is
    # roundoff (about 3.5e-18 of the largest) and its projection has an rms
    # just above 1e-12 of the panel's.
    panel, _ = generate(s3_scenario(100, 300, seed=3))
    path = tmp_path / "panel.csv"
    save_csv(panel, path, "rows-are-time")
    out = tmp_path / "out"
    proc = run_cli("diagnose", path, "--directions", 100, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == ("hdfactor: error: direction 100 is numerically null: "
                           "its eigenvalue is at most 1e-12 of the largest\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_simulate_table1_smoke(tmp_path):
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps({
        "id": "smoke",
        "study": "table1",
        "deltas": [0.0],
        "n_grid": [50],
        "p_rules": [0.2],
    }))
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--scenario", scenario, "--reps", 5, "--seed", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out / "result.json").read_text())
    assert doc["study"] == "table1"
    assert doc["cells"][0]["n"] == 50
    assert (out / "cells.csv").exists()


@pytest.mark.parametrize("name, text", [
    ("grid.cfg", "id = gdp, real\nstudy = table1\ndeltas = 0.0\nn_grid = 50\np_rules = 0.2\n"),
    ("grid.json", '{"id": "gdp, real", "study": "table1", "deltas": [0.0], "n_grid": [50], '
                  '"p_rules": [0.2]}'),
], ids=["flat", "json"])
def test_a_scenario_id_with_a_comma_is_one_quoted_field(tmp_path, name, text):
    scenario = tmp_path / name
    scenario.write_text(text)
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--scenario", scenario, "--reps", 2, "--seed", 1, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "result.json").read_text())["id"] == "gdp, real"
    with open(out / "cells.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["scenario_id", "delta", "n", "p", "p_rule", "reps", "freq_correct"]
    assert [row[0] for row in rows[1:]] == ["gdp, real"]
    assert {len(row) for row in rows} == {7}


def test_a_list_scenario_id_exits_2_before_any_replication(tmp_path, monkeypatch, capsys):
    from hdfactor import simulation

    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"id": ["gdp", "real"], "study": "table1", "n_grid": [50], "p_rules": [0.2]}')
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", str(cfg), "--reps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "hdfactor: error: scenario key 'id' has an invalid value: ['gdp', 'real']\n")
    assert not out.exists()


def test_simulate_exits_1_with_a_message_when_a_worker_dies(tmp_path):
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps({"study": "table1", "deltas": [0.0], "n_grid": [50],
                                    "p_rules": [0.2]}))
    code = ("import os, sys; from hdfactor import cli, simulation; "
            "simulation.generate = lambda scn: os._exit(3); "
            f"sys.exit(cli.main(['simulate', '--scenario', {str(scenario)!r}, '--reps', '4', "
            f"'--out', {str(tmp_path / 'sim')!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "HDFACTOR_THREADS": "2"}, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("hdfactor: error: replication worker ")
    assert proc.stderr.rstrip().endswith("ended without a result (exit status 3)")


def test_simulate_ratio_trace_and_two_step(tmp_path):
    ratio_cfg = tmp_path / "trace.cfg"
    ratio_cfg.write_text(
        "study = ratio-trace\nn = 80\np = 8\nr = 1\ndeltas = 0.0\nar_coeffs = 0.7\n"
        "loading_scheme = all-ones\n"
    )
    out = tmp_path / "trace"
    proc = run_cli("simulate", "--scenario", ratio_cfg, "--reps", 4, "--seed", 2, "--out", out)
    assert proc.returncode == 0, proc.stderr
    lines = (out / "traces.csv").read_text().strip().splitlines()
    assert lines[0] == "scenario_id,n,p,rep,index,value"
    assert len(lines) == 1 + 4 * 4  # reps x ratio span (p/2)

    two_cfg = tmp_path / "two.json"
    two_cfg.write_text(json.dumps({
        "study": "two-step", "n": 150, "p": 30, "r": 3,
        "deltas": [0.0, 0.0, 0.5], "ar_coeffs": [0.6, -0.5, 0.3],
    }))
    out2 = tmp_path / "two"
    proc = run_cli("simulate", "--scenario", two_cfg, "--reps", 3, "--seed", 3, "--out", out2)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((out2 / "result.json").read_text())
    assert set(doc) >= {"freq_one_step", "freq_two_step", "freq_two_step_sharp"}


def test_simulate_noiseless_ratio_trace_writes_nothing_to_stderr(tmp_path):
    # Past the one factor every ratio is masked in every replication; those
    # medians are written as null, and no numpy warning reaches stderr.
    cfg = tmp_path / "noiseless.cfg"
    cfg.write_text("study = ratio-trace\nn = 60\np = 8\nr = 1\nnoise_var = 0\n")
    proc = run_cli("simulate", "--scenario", cfg, "--reps", 3, "--seed", 1, "--out", tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    medians = json.loads((tmp_path / "result.json").read_text())["median_ratios"]["60"]
    assert medians[0] > 0 and medians[1:] == [None, None, None]


def test_simulate_unknown_study_exits_2(tmp_path):
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"study": "mystery"}))
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", cfg, "--out", out)
    assert proc.returncode == 2
    assert not out.exists()


def test_simulate_table1_without_grid_exits_2(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("study = table1\np_rules = 0.2\n")
    proc = run_cli("simulate", "--scenario", cfg, "--reps", 2, "--out", tmp_path)
    assert proc.returncode == 2
    assert "scenario file is missing keys: n_grid" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_scenario_file_nested_too_deeply_exits_2(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"study": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"hdfactor: error: invalid JSON in {re.escape(str(cfg))}: .*\n",
                        captured.err)
    assert not out.exists()


def test_simulate_non_numeric_scenario_value_exits_2(tmp_path):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("study = ratio-trace\nn = abc\np = 8\nr = 1\n")
    proc = run_cli("simulate", "--scenario", cfg, "--reps", 2, "--out", tmp_path)
    assert proc.returncode == 2
    assert "scenario key 'n'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, text, flags, key, value", [
    ("case.json", '{"study": "table1", "n_grid": [60], "p_rules": [0.2], "k0": 2.5}', ("--reps", 2),
     "k0", "2.5"),
    ("case.json", '{"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "n_grid": [60.9, 80]}',
     ("--reps", 2), "n_grid", "[60.9, 80]"),
    ("case.json", '{"study": "ratio-trace", "n": 60, "p": 10, "r": true}', ("--reps", 2),
     "r", "True"),
    ("case.cfg", "study = ratio-trace\nn = 60\np = 10\nr = 1\nreps = 3.7\n", (), "reps", "3.7"),
    ("case.json", '{"study": "table1", "n_grid": [60], "p_rules": [0.2], "noise_var": true}',
     ("--reps", 2), "noise_var", "True"),
    ("case.json", '{"study": "table1", "n_grid": [60], "p_rules": [true, 0.5]}', ("--reps", 2),
     "p_rules", "[True, 0.5]"),
    ("case.json", '{"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "deltas": false}',
     ("--reps", 2), "deltas", "False"),
    ("case.json", '{"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "p_coef": true}',
     ("--reps", 2), "p_coef", "True"),
], ids=["json-k0", "json-n-grid", "json-bool-r", "flat-reps", "json-bool-noise-var",
        "json-bool-p-rules", "json-bool-deltas", "json-bool-p-coef"])
def test_a_fractional_integer_key_exits_2_and_leaves_no_output(tmp_path, name, text, flags, key,
                                                                value):
    # Converting with int() would truncate the value and run another design,
    # and float() would read a boolean as 0 or 1.
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", cfg, *flags, "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == f"hdfactor: error: scenario key {key!r} has an invalid value: {value}\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_integer_keys_accept_integral_floats():
    assert cli._given({"k0": 2.0, "n_grid": [60.0, 80], "seed": "7"}, k0=cli._integer,
                      n_grid=cli._ints, seed=cli._integer) == {"k0": 2, "n_grid": [60, 80], "seed": 7}


def test_zero_replications_exit_1(tmp_path):
    trace = tmp_path / "trace.cfg"
    trace.write_text("study = ratio-trace\nn = 60\np = 10\nr = 1\n")
    two = tmp_path / "two.cfg"
    two.write_text("study = two-step\nn = 60\np = 10\nr = 1\n")
    rates = tmp_path / "rates.cfg"
    rates.write_text("n = 60\np = 10\nn_grid = 60, 80, 100\n")
    for command, cfg in (("simulate", trace), ("simulate", two), ("rates", rates)):
        out = tmp_path / f"{command}-{cfg.stem}"
        proc = run_cli(command, "--scenario", cfg, "--reps", 0, "--out", out)
        assert proc.returncode == 1, cfg
        assert proc.stderr == "hdfactor: error: reps must be an integer in [1, inf), got 0\n"
        assert not out.exists()


EMPTY_GRIDS = {
    "table1-n-grid": {"study": "table1", "n_grid": [], "p_rules": [0.2]},
    "table1-p-rules": {"study": "table1", "n_grid": [60], "p_rules": []},
    "table1-deltas": {"study": "table1", "deltas": [], "n_grid": [60], "p_rules": [0.2]},
    "ratio-trace": {"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "n_grid": []},
    "rates": {"study": "rates", "n": 60, "p": 10, "n_grid": []},
}


@pytest.mark.parametrize("name", sorted(EMPTY_GRIDS))
def test_an_empty_grid_exits_1_and_leaves_no_output(tmp_path, name):
    config = EMPTY_GRIDS[name]
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    command = "rates" if config["study"] == "rates" else "simulate"
    proc = run_cli(command, "--scenario", cfg, "--reps", 2, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == "hdfactor: error: need at least one grid cell\n"
    assert proc.stdout == ""
    assert not out.exists()



@pytest.mark.parametrize("command, config, message", [
    ("rates", {"n": 100, "p": 10, "n_grid": [60, 80, 60, 100]}, "n_grid repeats n = 60"),
    ("simulate", {"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "n_grid": [80, 60, 80]},
     "n_grid repeats n = 80"),
    ("simulate", {"study": "table1", "n_grid": [60, 60], "p_rules": [0.2]},
     "n_grid repeats n = 60"),
    ("simulate", {"study": "table1", "deltas": [0.0, 0], "n_grid": [60], "p_rules": [0.2]},
     "deltas repeats delta = 0.0"),
    ("simulate", {"study": "table1", "n_grid": [60], "p_rules": [0.2, 0.5, 0.2]},
     "p_rules repeats rule = 0.2"),
    ("rates", {"n": 100, "p": 10, "n_grid": [60, 80, 100], "tracked_j": [1, 1]},
     "tracked_j repeats j = 1"),
], ids=["rates", "ratio-trace", "table1", "table1-deltas", "table1-p-rules", "rates-tracked-j"])
def test_a_repeated_n_exits_1_and_leaves_no_output(tmp_path, command, config, message):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", cfg, "--reps", 2, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == f"hdfactor: error: {message}\n"
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(STUDY_INPUT_FAULTS))
def test_a_bad_study_input_exits_1_and_leaves_no_output(tmp_path, name):
    command, text, flags, message = STUDY_INPUT_FAULTS[name]
    cfg = tmp_path / "case.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", cfg, "--reps", 2, *flags, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == f"hdfactor: error: {message}\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_a_non_integer_thread_count_exits_1_and_leaves_no_output(tmp_path):
    cfg = tmp_path / "case.json"
    cfg.write_text('{"study": "two-step", "n": 40, "p": 8, "r": 1}')
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", cfg, "--reps", 1, "--out", out,
                   env_extra={"HDFACTOR_THREADS": "x"})
    assert proc.returncode == 1
    assert proc.stderr == "hdfactor: error: HDFACTOR_THREADS must be an integer, got 'x'\n"
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_a_thread_count_below_1_exits_1_and_leaves_no_output(tmp_path, threads):
    cfg = tmp_path / "case.json"
    cfg.write_text('{"study": "two-step", "n": 40, "p": 8, "r": 1}')
    out = tmp_path / "out"
    proc = run_cli("simulate", "--scenario", cfg, "--reps", 1, "--out", out,
                   env_extra={"HDFACTOR_THREADS": threads})
    assert proc.returncode == 1
    assert proc.stderr == ("hdfactor: error: HDFACTOR_THREADS must be an integer in [1, inf), "
                           f"got {threads}\n")
    assert proc.stdout == ""
    assert not out.exists()


def test_cli_passes_the_library_only_the_keys_a_scenario_sets(tmp_path, monkeypatch):
    # Keys a scenario file leaves out take the library's defaults, so the
    # CLI must not pass them on: that would restate each default.
    from hdfactor import cli

    received = []

    def recorder(real):
        def call(*args, **kwargs):
            received.append((real.__name__, set(kwargs)))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "run_table1", recorder(cli.run_table1))
    monkeypatch.setattr(cli, "Scenario", recorder(cli.Scenario))
    configs = {
        "table1": {"study": "table1", "n_grid": [40], "p_rules": [0.2]},
        "trace": {"study": "ratio-trace", "n": 40, "p": 8, "r": 1},
    }
    for name, config in configs.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["simulate", "--scenario", str(cfg), "--reps", "2",
                         "--out", str(tmp_path / name)]) == 0
    assert [name for name, _ in received] == ["run_table1", "Scenario"]
    defaulted = {"r", "ar_coeffs", "noise_var", "k0", "loading_scheme"}
    assert received[0][1] & defaulted == set()
    # Scenario has no default for r or ar_coeffs: a scenario file must give r,
    # and the CLI's own ar_coeffs fallback is 0.5.
    assert received[1][1] & defaulted == {"r", "ar_coeffs"}


def test_rates_smoke(tmp_path):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "study = rates\nn = 100\np = 10\nr = 1\ndeltas = 0.0\nar_coeffs = 0.7\n"
        "loading_scheme = all-ones\nn_grid = 100, 200, 400\ntracked_j = 1, 2\n"
    )
    out = tmp_path / "rates"
    proc = run_cli("rates", "--scenario", cfg, "--reps", 10, "--seed", 4, "--out", out)
    assert proc.returncode == 0, proc.stderr
    slope_lines = (out / "slopes.csv").read_text().strip().splitlines()
    assert slope_lines[0] == "j,slope,ci_low,ci_high"
    assert len(slope_lines) == 3
    error_lines = (out / "errors.csv").read_text().strip().splitlines()
    assert error_lines[0] == "scenario_id,n,p,rep,index,value"
    assert len(error_lines) == 1 + 3 * 10 * 2


@pytest.mark.parametrize("text, message", [
    ("n = 100\np = 10\nn_grid = 60, 80, 100\ntracked_j = 0, 1\n",
     "tracked index must be an integer in [1, inf), got 0"),
    ('{"n": 100, "p": 10, "n_grid": [60, 80, 100], "tracked_j": []}',
     "need at least one tracked eigenvalue"),
], ids=["zero", "empty"])
def test_rates_rejects_a_tracked_index_below_1_with_exit_1(tmp_path, text, message):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(text)
    out = tmp_path / "rates"
    proc = run_cli("rates", "--scenario", cfg, "--reps", 3, "--out", out)
    assert proc.returncode == 1
    assert proc.stderr == f"hdfactor: error: {message}\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_rates_without_an_n_grid_exits_2_before_any_replication(tmp_path, monkeypatch, capsys):
    from hdfactor import simulation

    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    cfg = tmp_path / "rates.json"
    cfg.write_text('{"n": 60, "p": 10}')
    out = tmp_path / "rates"
    assert cli.main(["rates", "--scenario", str(cfg), "--reps", "40", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "hdfactor: error: scenario file is missing keys: n_grid\n")
    assert not out.exists()


def test_rates_refuses_fewer_than_three_sizes_before_any_replication(tmp_path, monkeypatch,
                                                                    capsys):
    from hdfactor import simulation

    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    cfg = tmp_path / "rates.json"
    cfg.write_text('{"n": 60, "p": 10, "n_grid": [400, 800]}')
    out = tmp_path / "rates"
    assert cli.main(["rates", "--scenario", str(cfg), "--reps", "40", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "hdfactor: error: need at least three grid points to fit a slope\n")
    assert not out.exists()


def test_cli_reruns_are_byte_identical_apart_from_timestamp(tmp_path):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(
        "study = ratio-trace\nn = 60\np = 10\nr = 3\ndeltas = 0.0\n"
        "ar_coeffs = 0.6, -0.5, 0.3\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = run_cli("simulate", "--scenario", cfg, "--reps", 5, "--seed", 9, "--out", out)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    assert (outs[0] / "traces.csv").read_bytes() == (outs[1] / "traces.csv").read_bytes()
    strip = lambda p: [l for l in (p / "result.json").read_text().splitlines()
                       if '"timestamp"' not in l]
    assert strip(outs[0]) == strip(outs[1])


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "hdfactor" in proc.stdout


# One command per output kind, at sizes where OpenBLAS's thread count
# changes the bits of unheld lag products, QRs and eigensolves.
THREAD_INVARIANCE_RUNS = {
    "estimate": ("estimate", "panel.csv"),
    "two-step": ("two-step", "panel.csv"),
    "diagnose": ("diagnose", "panel.csv", "--two-step", "--max-lag", 6),
    "simulate-table1": ("simulate", "--scenario", "table1.json", "--reps", 4, "--seed", 4),
    "simulate-ratio-trace": ("simulate", "--scenario", "trace.json", "--reps", 6, "--seed", 4),
    "simulate-two-step": ("simulate", "--scenario", "two.json", "--reps", 4, "--seed", 4),
    "rates": ("rates", "--scenario", "rates.json", "--reps", 4, "--seed", 4),
}
THREAD_INVARIANCE_SCENARIOS = {
    "table1.json": {"study": "table1", "n_grid": [400], "p_rules": [0.5]},
    "trace.json": {"study": "ratio-trace", "n": 400, "p": 200, "r": 3, "deltas": [0.0],
                   "ar_coeffs": [0.6, -0.5, 0.3]},
    "two.json": {"study": "two-step", "n": 400, "p": 200, "r": 3, "deltas": [0.0, 0.0, 0.5],
                 "ar_coeffs": [0.6, -0.5, 0.3]},
    "rates.json": {"n": 300, "p": 150, "n_grid": [200, 300, 400], "p_coef": 0.5},
}


@pytest.mark.parametrize("name", sorted(THREAD_INVARIANCE_RUNS))
def test_output_bytes_do_not_depend_on_blas_or_worker_threads(tmp_path, name):
    save_csv(generate(s3_scenario(100, 300, seed=1))[0], tmp_path / "panel.csv", "rows-are-time")
    for file_name, config in THREAD_INVARIANCE_SCENARIOS.items():
        (tmp_path / file_name).write_text(json.dumps(config))
    outputs = set()
    # Unset, then each BLAS thread count with each worker count.
    for blas, workers in ((None, None), ("1", "2"), ("2", "1")):
        out = tmp_path / f"blas{blas}-workers{workers}"
        proc = run_cli(*THREAD_INVARIANCE_RUNS[name], "--out", out, cwd=tmp_path,
                       env_extra={"OPENBLAS_NUM_THREADS": blas, "HDFACTOR_THREADS": workers})
        assert proc.returncode == 0, proc.stderr
        outputs.add(tuple(
            (f.name, tuple(line for line in f.read_bytes().splitlines() if b'"timestamp"' not in line))
            for f in sorted(out.iterdir())
        ))
    assert len(outputs) == 1


@pytest.mark.skipif(_openblas.threads_api() is None, reason="numpy's bundled OpenBLAS was not found")
def test_cli_commands_run_single_thread_blas_and_restore_the_count(tmp_path, monkeypatch):
    get_threads, set_threads = _openblas.threads_api()
    seen, fit = [], cli.estimate

    def spy(*args, **kwargs):
        seen.append(get_threads())
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate", spy)
    path, _ = write_panel_csv(tmp_path, n=60, p=8)
    original = get_threads()
    set_threads(2)
    try:
        assert cli.main(["estimate", str(path), "--out", str(tmp_path / "out")]) == 0
        assert get_threads() == 2
    finally:
        set_threads(original)
    assert seen == [1]


_ENTRY_THREADS = """
from hdfactor import cli


def main():
    from hdfactor import _openblas  # numpy loads here, after the entry's setting

    print(_openblas.threads_api()[0]())
    return 0


cli.main = main
cli.run()
"""


@pytest.mark.skipif(_openblas.threads_api() is None, reason="numpy's bundled OpenBLAS was not found")
def test_a_cli_process_starts_openblas_at_one_thread():
    # The user's setting does not reach OpenBLAS, so it starts no pool thread.
    proc = subprocess.run([sys.executable, "-c", _ENTRY_THREADS], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


class _UnflushableStream:
    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("flush_raises", [False, True], ids=["flushed", "flush-raises"])
def test_the_entry_leaves_through_os_exit_only_after_a_clean_flush(monkeypatch, flush_raises):
    exits = []
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # the entry sets it; this restores it
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(os, "_exit", exits.append)
    if flush_raises:
        monkeypatch.setattr(sys, "stdout", _UnflushableStream())
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert (info.value.code, exits) == (3, [])
    else:
        cli.run()
        assert exits == [3]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_fit_on_a_closed_stdout_pipe_fails_as_it_did_without_the_entry(tmp_path, unbuffered):
    # Unbuffered, the summary's print raises inside main, which exits 2.
    # Buffered, the entry's flush raises, and the interpreter's own flush at
    # exit reports the pipe and exits 120, as without the entry.
    path, _ = write_panel_csv(tmp_path, n=60, p=8)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hdfactor", "estimate", str(path), "--out", str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    if unbuffered:
        assert (proc.returncode, proc.stderr) == (2, "hdfactor: error: [Errno 32] Broken pipe\n")
    else:
        assert proc.returncode == 120, proc.stderr
        assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
    assert (tmp_path / "out" / "model.json").is_file()


def test_fits_at_p_ten_times_n_search_half_the_rank(tmp_path):
    # A centred n=60 panel has rank 59: the default span stops at 29, and no
    # fit writes the n-1 directions a span of p/2 would reach.
    path, _ = write_panel_csv(tmp_path, n=60, p=600, seed=21)
    for command in ("estimate", "two-step"):
        out = tmp_path / command
        proc = run_cli(command, path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((out / "model.json").read_text())
        assert doc["R"] == 29
        assert doc["r_hat"] <= 29
        assert (doc["loadings"]["rows"], doc["loadings"]["cols"]) == (600, doc["r_hat"])


# sha256 of model.json from `estimate` and `two-step` with default flags on
# the seeded n=40, p=100 panel below, whose default ratio span is
# floor(39/2) = 19.  A fit that changes its output (r_hat, spectra or
# loadings) changes these digests too.
MODEL_JSON_SHA256 = {
    "estimate": "0a56f6f6bb90c0fe8a070b14e97b644fc74d9fcb4dd2a29d0943b345080c8134",
    "two-step": "edf540956649efb3c87d04e30101687c61933b82bec3431d8cc531e779d9e052",
}


def test_wide_panel_model_json_bytes_are_pinned(tmp_path):
    # Run without --k0, so the digests also pin the CLI's default lag
    # ("k0": 5, the library's DEFAULT_K0).
    path, _ = write_panel_csv(tmp_path, n=40, p=100, seed=8)
    for command, digest in MODEL_JSON_SHA256.items():
        out = tmp_path / command
        proc = run_cli(command, path, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256((out / "model.json").read_bytes()).hexdigest() == digest



# sha256 of every file `estimate --dump-loadings --dump-factors` writes for
# the panel above.  eigenvalues.csv was computed while the CSV writer still
# formatted each value on its own.
DUMP_SHA256 = {
    "eigenvalues.csv": "910d94e65e34ae0be3f35ceaf935d5780766e4f2c19e381e8e387aa9e80d049c",
    "factors.csv": "c7471ef7b4e0447c3c197182da399cb5733f1cf97966fde6f64ba22d9f214c3e",
    "loadings.csv": "74b6c044b11220518638aa7a5be9eae639ab9b067f2359ffc29fccf6997f5206",
    "model.json": MODEL_JSON_SHA256["estimate"],
    "ratios.csv": "ab0e99d57143c7ab4d62fb2f9b8c3c2b698ca1a873a7cd110b2b7a1fc721304b",
}


def test_dumped_matrices_bytes_are_pinned(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=40, p=100, seed=8)
    out = tmp_path / "out"
    proc = run_cli("estimate", path, "--dump-loadings", "--dump-factors", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in out.iterdir()} == DUMP_SHA256

def test_bad_cells_exit_2_with_their_messages(tmp_path):
    cases = {
        "1,2,3\n4,5,6\n7,8,x\n": "non-numeric cell 'x' at row 3, column 3",
        "1,2,3\n4,5,6\n7,y,9\n": "non-numeric cell 'y' at row 3, column 2",
        "1,2\nnan,4\n5,6\n": "non-finite cell 'nan' at row 2, column 1",
        "1,2\n3,4\n5,inf\n": "non-finite cell 'inf' at row 3, column 2",
    }
    for k, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"bad{k}.csv"
        path.write_text(text)
        proc = run_cli("estimate", path, "--out", tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"hdfactor: error: {message}\n"


def test_overlong_field_exits_2_without_traceback(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("0" * 140_000 + ",1\n2,3\n")
    proc = run_cli("estimate", path, "--out", tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"hdfactor: error: {path}:1: field larger than field limit (131072)\n"


def test_non_utf8_inputs_exit_2_without_traceback(tmp_path):
    panel_path, _ = write_panel_csv(tmp_path, n=60, p=4, seed=13)
    latin = tmp_path / "latin1.csv"
    latin.write_bytes(b"1\n\xe9\n3\n")
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"study = table1\nid = caf\xe9\n")
    runs = {
        "latin1.csv is not UTF-8 text: byte 0xe9 at offset 2": [
            ("estimate", latin),
            ("diagnose", panel_path, "--k0", 1, "--project", latin),
        ],
        "latin1.cfg is not UTF-8 text: byte 0xe9 at offset 23": [
            ("simulate", "--scenario", cfg),
        ],
    }
    for message, commands in runs.items():
        for args in commands:
            proc = run_cli(*args, "--out", tmp_path / "out")
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stderr.strip().endswith(message)


def test_byte_order_mark_does_not_change_the_fit(tmp_path):
    path, _ = write_panel_csv(tmp_path, n=80, p=6, seed=14)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for source, name in ((path, "plain"), (bom, "bom")):
        proc = run_cli("estimate", source, "--k0", 1, "--out", tmp_path / name)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plain" / "model.json").read_bytes() == \
        (tmp_path / "bom" / "model.json").read_bytes()


def _fingerprint(proc, out):
    """sha256 of exit code, stdout, stderr and every output file but its timestamp line."""
    digest = hashlib.sha256(repr((proc.returncode, proc.stdout, proc.stderr)).encode())
    for path in sorted(out.iterdir()) if out.exists() else []:
        digest.update(path.name.encode())
        digest.update(b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                               if b'"timestamp"' not in line))
    return digest.hexdigest()


# Digests of `simulate` and `rates` runs, computed before the CLI stopped
# restating the library's scenario defaults; a run that changes any default,
# seed coordinate, row order or message changes its digest.  The two
# repeated-n cases pin their exit 1 (a repeated n used to run twice and be
# counted twice); "ratio-trace-p-coef" was computed before that check.
STUDY_RUNS = {
    "table1-defaults": (
        "simulate", {"study": "table1", "n_grid": [40, 60], "p_rules": [0.2, 0.5]},
        "004a07cab635faeb7833c8375899a4331418a5e9a679b127654c9d6eb812c25b"),
    "table1-every-key": (
        "simulate", {"study": "table1", "deltas": [0.0, 0.5], "n_grid": [50], "p_rules": [0.3],
                     "r": 2, "ar_coeffs": [0.5, -0.4], "noise_var": 0.5, "k0": 2},
        "c6f48ab9a76836732b48290a03a574cf839316800145a9e684334259f7313ffb"),
    "ratio-trace-p-coef": (
        "simulate", {"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "p_coef": 0.25,
                     "n_grid": [60, 80]},
        "d19a41359cf6a556eb86a06c2f957fd642374ed7669e2febe68842314ffef457"),
    "ratio-trace-p-coef-repeated-n": (
        "simulate", {"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "p_coef": 0.25,
                     "n_grid": [60, 80, 60]},
        "8274de67663eade4eb713f259a8f96969d8420ed400f1794059c15ad66fa6c1b"),
    "two-step-uniform": (
        "simulate", {"study": "two-step", "n": 100, "p": 20, "r": 3, "deltas": [0.0, 0.0, 0.5],
                     "ar_coeffs": [0.6, -0.5, 0.3]},
        "d473d053d29aca249a00e79d9122252dfba93990b4cfbf72aca3c6ab7447e276"),
    "two-step-all-ones": (
        "simulate", {"study": "two-step", "n": 80, "p": 12, "r": 1, "ar_coeffs": 0.7,
                     "loading_scheme": "all-ones"},
        "c3e0037aa734e7a6690e633515725f54301861090a7f882d0bbf0df19a725ab5"),
    "rates": (
        "rates", {"n": 100, "p": 10, "n_grid": [60, 80, 100]},
        "81ec85c1b5a7f1a12ff0f4cffcce7bb81b21279abfafbe63a8c7e373a6680a69"),
    "rates-p-coef": (
        "rates", {"n": 100, "p": 10, "n_grid": [60, 80, 100], "p_coef": 0.1, "tracked_j": [1]},
        "fb426405b9b8144f9f17cd5e2a377e4496d46d345e03fe1aeec3b9bd3a2807af"),
    "rates-repeated-n": (
        "rates", {"n": 100, "p": 10, "n_grid": [60, 80, 60, 100]},
        "8274de67663eade4eb713f259a8f96969d8420ed400f1794059c15ad66fa6c1b"),
    "null-noise-var": (
        "simulate", {"study": "two-step", "n": 60, "p": 10, "r": 1, "noise_var": None},
        "32715e99e676fe580831bb7ae321db775efe86b593e0a59a4ea5fed30aaf9fb9"),
    "numeric-loading-scheme": (
        "simulate", {"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "loading_scheme": 5},
        "ed9a24a3cfc28099bcea66c6023083020066e161378c0c462ce1870ce589a207"),
}


@pytest.mark.parametrize("name", sorted(STUDY_RUNS))
def test_study_command_outputs_pin_their_bytes(tmp_path, name):
    command, config, digest = STUDY_RUNS[name]
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    proc = run_cli(command, "--scenario", cfg, "--reps", 3, "--seed", 5, "--out", out)
    assert _fingerprint(proc, out) == digest, (proc.returncode, proc.stderr)
