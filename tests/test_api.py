"""The package's public surface, and the attributes the benchmark's tracer wraps."""

import ast
import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hdfactor
from hdfactor import cli, diagnostics, errors, estimation, panel, simulation

PUBLIC_NAMES = [
    "AcfReport", "DimensionError", "DomainError", "EigenErrorStudy", "FactorModel",
    "HDFactorError", "McResult", "Panel", "ParseError", "RatioTraceStudy", "Scenario",
    "SeasonalSpec", "SimulationTruth", "SlopeFit", "TwoStepStudy", "__version__", "build_m",
    "center", "cross_acf", "default_ratio_span", "derive_seed", "eigen_error_study", "estimate",
    "fit_error_slopes", "generate", "load_csv", "m_eigenvalues", "population_m",
    "projection_residual_ratio", "ratio_estimate", "ratio_trace_study",
    "residual_projection_acf", "run_table1", "sample_autocov", "save_csv", "seasonal_demean",
    "sym_eigen", "two_step_estimate", "two_step_study", "variance_explained",
]


def test_the_package_exports_each_public_name_once_from_its_defining_module():
    assert sorted(hdfactor.__all__) == PUBLIC_NAMES
    assert len(set(hdfactor.__all__)) == len(hdfactor.__all__)
    for module in (diagnostics, errors, estimation, panel, simulation):
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(hdfactor, name) is obj, name
            assert obj.__module__ == module.__name__, name


def _assigns_all(path) -> bool:
    """Whether the module at ``path`` assigns ``__all__`` at its top level."""
    return any(isinstance(node, ast.Assign) and any(isinstance(target, ast.Name)
                                                    and target.id == "__all__"
                                                    for target in node.targets)
               for node in ast.parse(path.read_text()).body)


def test_every_module_all_lists_only_what_the_module_defines():
    # A module's __all__ names its own objects; a re-export gives one name two homes.
    package = Path(hdfactor.__file__).parent
    modules = [importlib.import_module(f"hdfactor.{path.stem}")
               for path in sorted(package.glob("*.py")) if _assigns_all(path)]
    assert {module.__name__ for module in modules} >= {
        "hdfactor.diagnostics", "hdfactor.errors", "hdfactor.estimation", "hdfactor.panel",
        "hdfactor.serialize", "hdfactor.simulation"}
    borrowed = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
                if getattr(module, name).__module__ != module.__name__]
    assert borrowed == []


def _bench_module(monkeypatch, name):
    """``bench/<name>.py``, loaded as ``bench_<name>`` with ``bench/`` on sys.path for its imports."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_attribute_the_benchmark_wraps_exists_and_is_restored(monkeypatch):
    # bench/spans.py replaces module attributes by recording wrappers; a
    # refactor that drops one would otherwise fail only in the benchmark.
    spans = _bench_module(monkeypatch, "spans")

    modules = (cli, estimation, simulation)
    # The cli binds its library names on first read; read one now, so the
    # tracer's own reads below leave vars(cli) as it was.
    cli.load_csv
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        wrapped = [(module.__name__, name) for module, old in zip(modules, before)
                   for name, value in vars(module).items() if old.get(name) is not value]
    finally:
        tracer.unwrap()
    assert wrapped
    for module, old in zip(modules, before):
        assert vars(module).keys() == old.keys()
        assert all(vars(module)[name] is value for name, value in old.items())


def test_every_study_result_field_the_benchmark_reads_exists(monkeypatch):
    # bench/run.py counts hits from McResult's and TwoStepStudy's fields and
    # compares results with ==; a refactor that moves one would otherwise
    # fail only in the benchmark.
    run = _bench_module(monkeypatch, "run")
    cells = simulation.run_table1([0.0], [40], [0.5], 2, 1, workers=1)
    hits = sum(res.r_hat_counts.get(3, 0) for *_, res in cells)
    assert run.McTable1.hits(cells) == (hits, 2)
    assert run.check_study(cells, simulation.run_table1([0.0], [40], [0.5], 2, 1)) == []
    scenario = simulation.Scenario(n=40, p=20, seed=2, **run.MIXED_DESIGN)
    result = simulation.two_step_study(scenario, 2, workers=1)
    assert run.McTwoStep.hits(result) == (round(result.freq_two * 2), 2)
    assert run.check_study(dataclasses.replace(result, freq_two=result.freq_two + 0.5), result)


_FRESH_START = """
import contextlib, io, json, sys
from hdfactor import cli

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
numpy_loaded = "numpy" in sys.modules
namespace = {}
exec("from hdfactor import *", namespace)
import hdfactor
print(json.dumps({"runs": runs, "numpy_loaded": numpy_loaded,
                  "star": sorted(set(namespace) - {"__builtins__"}), "dir": dir(hdfactor)}))
"""


def test_version_help_and_usage_errors_start_without_numpy(capsys, monkeypatch):
    argvs = [["--version"], ["--help"], ["estimate", "--help"],
             ["estimate", "panel.csv", "--no-such-flag"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    proc = subprocess.run([sys.executable, "-c", _FRESH_START, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert not fresh["numpy_loaded"]

    # Each run prints what it prints in this process, where numpy is loaded.
    expected = []
    for argv in argvs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        expected.append([code, captured.out, captured.err])
    assert fresh["runs"] == expected
    assert [code for code, _, _ in expected] == [0, 0, 0, 3]
    assert expected[0][1] == f"hdfactor {hdfactor.__version__}\n"
    assert expected[1][1].startswith("usage: hdfactor")
    assert "--k0 K0" in expected[2][1]
    assert "unrecognized arguments: --no-such-flag" in expected[3][2]

    assert fresh["star"] == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(fresh["dir"])


def _integer_checks(tree):
    """Line numbers of the integer checks in ``tree``.

    A check is ``int(x)`` compared with ``x`` itself, in either order, or a
    call of an ``is_integer`` method.
    """
    def int_of(node):
        is_int = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int" and len(node.args) == 1)
        return ast.dump(node.args[0]) if is_int else None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [ast.dump(operand) for operand in [node.left, *node.comparators]]
            for operand in [node.left, *node.comparators]:
                if int_of(operand) in operands:
                    lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "is_integer"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("values, first", [([5, 1, 1, 5], 5), ([1, 5, 5], 5), ([2.0, 2], 2.0)])
def test_distinct_names_the_first_repeated_value_in_first_occurrence_order(values, first):
    assert errors._distinct(iter([3, 1, 2]), "{} twice") == (3, 1, 2)
    with pytest.raises(errors.DomainError, match=f"^{first} twice$"):
        errors._distinct(values, "{} twice")


def test_only_errors_py_states_the_integer_rule():
    # errors._integer_in is the one integer check: a module with its own
    # ``int(x) != x`` or ``x.is_integer()`` would bring back a second rule
    # and its own message.
    package = Path(hdfactor.__file__).parent
    found = {path.name: _integer_checks(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py")) if path.name != "errors.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _integer_checks(ast.parse((package / "errors.py").read_text()))
    # The guard sees each kind of check it claims to.
    checks = ["int(x) != x", "x == int(x)", "float(v).is_integer()", "v.is_integer()",
              "int(x) != y", "is_integer(v)"]
    assert _integer_checks(ast.parse("\n".join(checks))) == [1, 2, 3, 4]


def _open_mode(call):
    """The mode node of an ``open``, ``os.fdopen``, ``Path.open`` or ``Path.write_text`` call.

    A constant "r" stands for an omitted mode; None means ``call`` opens no file.
    """
    func = call.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    if attr == "write_text":
        return ast.Constant("w")
    if isinstance(func, ast.Name) and func.id == "open" or attr == "fdopen":
        position = 1
    elif attr == "open":
        position = 0
    else:
        return None
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:][:1]
    return modes[0] if modes else ast.Constant("r")


def _text_writers(tree):
    """Names of the functions that open a file to write text; a mode that is no constant counts."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            mode = _open_mode(child) if isinstance(child, ast.Call) else None
            if mode is not None and not (
                    isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and ("b" in mode.value or not set(mode.value) & set("wax+"))):
                found.append(function)
            visit(child, function)

    visit(tree, None)
    return found


def test_only_write_csv_and_dump_json_open_a_file_to_write_text():
    # panel.write_csv frames every CSV file and serialize.dump_json every JSON
    # file; a module opening its own text file would bring back a second
    # framing, with its own quoting, line ends and memory use.
    package = Path(hdfactor.__file__).parent
    found = {path.name: _text_writers(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {
        "panel.py": ["write_csv"], "serialize.py": ["dump_json"]}
    # The guard sees each kind of call it claims to.
    calls = ['open(p, "w")', 'open(p, mode="a")', "open(p, mode)", 'Path(p).open("w+")',
             'os.fdopen(fd, "w")', 'Path(p).write_text("x")', 'open(p)', 'open(p, "rb")',
             'open(p, "xb")', 'os.fdopen(fd, "wb")', 'Path(p).open()']
    tree = ast.parse("\n".join(f"def f{k}():\n    {call}" for k, call in enumerate(calls)))
    assert _text_writers(tree) == ["f0", "f1", "f2", "f3", "f4", "f5"]
