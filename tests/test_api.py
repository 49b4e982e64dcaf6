"""The package's public surface, and the attributes the benchmark's tracer wraps."""

import importlib.util
import sys
from pathlib import Path

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


def test_every_attribute_the_benchmark_wraps_exists_and_is_restored(monkeypatch):
    # bench/spans.py replaces module attributes by recording wrappers; a
    # refactor that drops one would otherwise fail only in the benchmark.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)

    modules = (cli, estimation, simulation)
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
