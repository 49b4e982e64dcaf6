"""Command-line interface.

Subcommands wire ingestion, estimation, diagnostics and the Monte Carlo
studies into reproducible batch runs.  No plots are rendered: every
figure-shaped result is written as a CSV that any plotting tool can
consume.  Exit codes separate failure classes so scripts can branch:
0 success, 1 estimation/domain error, 2 I/O or parse error, 3 bad flags.

Every command runs with numpy's OpenBLAS held at one thread, as the
Monte Carlo studies already are, so the bytes a command writes do not
depend on ``OPENBLAS_NUM_THREADS`` or the core count.

A ``hdfactor`` or ``python -m hdfactor`` process enters through ``run``.
It sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, so OpenBLAS starts
no thread pool and a user's own setting does not apply (it never changed
an output byte).  Once ``main`` returns, ``run`` flushes stdout and
stderr and leaves through ``os._exit``, skipping the interpreter's
teardown of numpy.  ``main`` itself, as library code and tests call it,
does neither: this module imports no numpy at its top level, so the
setting can come first.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from pathlib import Path
from typing import NoReturn

from . import __version__
from .errors import (DimensionError, DomainError, HDFactorError, ParseError, _integer_in,
                     _real_number)


def _fit_names() -> dict:
    """numpy and the fit commands' names (fits, panel files, outputs), which all commands bind.

    The CLI reads each panel through the cache of parsed tables, under the
    name ``load_csv``.
    """
    import numpy as np

    from . import _openblas
    from .estimation import estimate, two_step_estimate
    from .panel import SeasonalSpec, fmt_float, matrix_rows, seasonal_demean, write_csv
    from .panel import load_csv_cached as load_csv
    from .serialize import acf_rows, dump_json, load_config, model_to_dict

    return locals()


def _diagnostics_names() -> dict:
    from .diagnostics import cross_acf, projection_residual_ratio, residual_projection_acf, variance_explained

    return locals()


def _simulation_names() -> dict:
    # Here rather than at the top: dataclasses imports inspect, which a fit never needs.
    from dataclasses import asdict, astuple

    from .simulation import (
        GENERATOR_ID,
        Scenario,
        _check_slope_grid,
        eigen_error_study,
        fit_error_slopes,
        ratio_trace_study,
        run_table1,
        two_step_study,
    )

    return locals()


def _load_library(*groups) -> None:
    """Bind ``_fit_names`` and the names of each of ``groups``, keeping any already bound.

    ``main`` calls this after a successful parse with the groups of the
    command being run, so ``--version``, ``--help`` and usage errors never
    import numpy, and a fit never imports the simulation or diagnostics
    modules.  A name already bound, such as a test's monkeypatch or a
    tracing wrapper on ``estimate``, is kept.
    """
    for names in (_fit_names, *groups):
        for name, value in names().items():
            globals().setdefault(name, value)


def __getattr__(name):
    # An outside reader's first look at a library name (``cli.estimate``)
    # binds them all; dunder lookups by the import system never do.
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_library(_diagnostics_names, _simulation_names)
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


ORIENTATION_FLAGS = {"time-rows": "rows-are-time", "series-rows": "rows-are-series"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _index_list(text: str) -> list:
    try:
        return [int(d) for d in text.split(",") if d.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_panel_flags(sub):
    sub.add_argument("input", help="panel CSV file")
    sub.add_argument("--orientation", choices=sorted(ORIENTATION_FLAGS), default="time-rows",
                     help="whether each CSV row is one time point or one series")
    sub.add_argument("--seasonal-period", type=int, default=None,
                     help="remove per-season means before fitting (e.g. 12 for monthly data)")
    sub.add_argument("--k0", type=int, default=None, help="largest autocovariance lag pooled")
    sub.add_argument("--max-ratio-index", type=int, default=None,
                     help="largest index searched by the ratio rule (default "
                          "floor(min(p, n-1)/2), half the centred panel's rank bound; "
                          "Ahn & Horenstein 2013)")
    sub.add_argument("--appendix-centering", action="store_true",
                     help="center each lag window by its own mean instead of the full-sample mean")
    sub.add_argument("--out", default=".", help="output directory")


def _add_dump_flags(sub):
    sub.add_argument("--dump-loadings", action="store_true", help="also write loadings.csv")
    sub.add_argument("--dump-factors", action="store_true", help="also write factors.csv")


def _add_study_flags(sub):
    sub.add_argument("--scenario", required=True, help="scenario file (JSON or key = value lines)")
    sub.add_argument("--reps", type=int, default=None, help="override replication count")
    sub.add_argument("--seed", type=int, default=None, help="override the base seed")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hdfactor", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hdfactor {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="fit the one-step factor model to a panel")
    _add_panel_flags(est)
    _add_dump_flags(est)
    est.set_defaults(func=cmd_fit, two_step=False, library=())

    two = commands.add_parser("two-step", help="fit the two-step model for mixed-strength factors")
    _add_panel_flags(two)
    two.add_argument("--r1", type=int, default=None, help="override the first-pass factor count")
    _add_dump_flags(two)
    two.set_defaults(func=cmd_fit, two_step=True, library=())

    diag = commands.add_parser("diagnose", help="fit, then run whiteness and variance diagnostics")
    _add_panel_flags(diag)
    diag.add_argument("--two-step", action="store_true", help="diagnose the two-step fit")
    diag.add_argument("--max-lag", type=int, default=20,
                      help="largest lag of the factor and residual autocorrelations")
    diag.add_argument("--directions", type=_index_list, default=None,
                      help="comma-separated eigen indices (> r_hat) for residual projections")
    diag.add_argument("--project", default=None, metavar="FILE",
                      help="one-series CSV to project onto the factor-series span")
    diag.set_defaults(func=cmd_diagnose, library=(_diagnostics_names,))

    sim = commands.add_parser("simulate", help="run a Monte Carlo study from a scenario file")
    _add_study_flags(sim)
    sim.set_defaults(func=cmd_simulate, library=(_simulation_names,))

    rates = commands.add_parser("rates", help="empirical convergence-rate study with slope fits")
    _add_study_flags(rates)
    rates.set_defaults(func=cmd_rates, library=(_simulation_names,))
    return parser


def _fit(args):
    """The panel named on the command line and the model fitted to it."""
    panel = load_csv(args.input, ORIENTATION_FLAGS[args.orientation])
    if args.seasonal_period is not None:
        panel = seasonal_demean(panel, SeasonalSpec(args.seasonal_period))
    # Without --k0 the library's own default lag applies.
    lag = {} if args.k0 is None else {"k0": args.k0}
    if args.two_step:
        model = two_step_estimate(panel, ratio_span=args.max_ratio_index,
                                  r1_override=getattr(args, "r1", None),
                                  window_centering=args.appendix_centering, **lag)
    else:
        model = estimate(panel, ratio_span=args.max_ratio_index,
                         window_centering=args.appendix_centering, **lag)
    return panel, model


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trace_csvs(out: Path, model, suffixes=("",)):
    """Eigenvalue and ratio traces, one pair of files per pass named by ``suffixes``."""
    passes = [(model.eigenvalues, model.ratios), (model.eigenvalues_step2, model.ratios_step2)]
    for suffix, (eigenvalues, ratios) in zip(suffixes, passes):
        write_csv(out / f"eigenvalues{suffix}.csv", ["index", "lambda"], enumerate(eigenvalues, 1))
        write_csv(out / f"ratios{suffix}.csv", ["index", "ratio"], enumerate(ratios, 1))


def _print_fit(model):
    print(f"r_hat = {model.r_hat} ({model.method}, k0={model.k0}, R={model.ratio_span})")
    if model.method == "two-step":
        print(f"r1_hat = {model.r1_hat}, r2_hat = {model.r2_hat}"
              + (" (second pass shows no sharp minimum)" if model.step2_no_sharp_minimum else ""))
    shown = [f"{i + 1}:{v:.6g}" for i, v in enumerate(model.ratios[:8])]
    print("leading eigenvalue ratios:", "  ".join(shown))


def cmd_fit(args) -> int:
    panel, model = _fit(args)
    out = _out_dir(args)
    dump_json(out / "model.json", model_to_dict(model))
    _write_trace_csvs(out, model, ("_pass1", "_pass2") if args.two_step else ("",))
    if args.dump_loadings:
        write_csv(out / "loadings.csv", None, matrix_rows(model.loadings, panel.series_labels))
    if args.dump_factors:
        write_csv(out / "factors.csv", None, matrix_rows(model.factors.T, panel.time_labels))
    _print_fit(model)
    return 0


def cmd_diagnose(args) -> int:
    # Every diagnostic and check runs before anything is written or printed,
    # so a failing run leaves no partial output.
    model = _fit(args)[1]
    factor_acf = cross_acf(model.factors, args.max_lag,
                           series_ids=[f"factor{i + 1}" for i in range(model.r_hat)])
    shares = variance_explained(model)
    extras = {"variance_explained": shares}
    if args.directions:
        residual_acf = residual_projection_acf(model, args.directions, args.max_lag)
    if args.project:
        series = load_csv(args.project, ORIENTATION_FLAGS[args.orientation])
        if series.p != 1:
            raise DomainError(f"projection input must hold one series, got {series.p}")
        ratio = projection_residual_ratio(series.values[0], model.factors)
        extras["projection_residual_ratio"] = ratio

    out = _out_dir(args)
    write_csv(out / "acf.csv", ["i", "j", "lag", "value", "band"], acf_rows(factor_acf))
    write_csv(out / "variance_explained.csv", ["factor", "fraction"],
              [(i + 1, v) for i, v in enumerate(shares)])
    if args.directions:
        write_csv(out / "residual_acf.csv", ["i", "j", "lag", "value", "band"],
                  acf_rows(residual_acf))
    dump_json(out / "model.json", model_to_dict(model, extras=extras))
    print("variance explained:", " ".join(fmt_float(v) for v in shares))
    if args.project:
        print(fmt_float(ratio))
    return 0


def _require(config: dict, *keys) -> None:
    missing = [key for key in keys if key not in config]
    if missing:
        raise ParseError(f"scenario file is missing keys: {', '.join(missing)}")


def _given(config: dict, **kinds) -> dict:
    """The keys of ``kinds`` that ``config`` sets, each converted by its kind.

    A key the file leaves out is left out here too, so the library's own
    default applies.  A value its kind rejects is a ParseError naming the key.
    """
    given = {}
    for key, kind in kinds.items():
        if key in config:
            try:
                given[key] = kind(config[key])
            except (TypeError, ValueError, OverflowError):
                raise ParseError(
                    f"scenario key {key!r} has an invalid value: {config[key]!r}"
                ) from None
    return given


def _many(kind):
    """Kind of a list of ``kind`` values, where a scalar is a one-item list."""
    return lambda value: [kind(v) for v in (value if isinstance(value, list) else [value])]


def _integer(value) -> int:
    """``value`` under the library's integer rule, with a str read by ``int()`` first."""
    if isinstance(value, str):
        value = int(value)
    return _integer_in("scenario value", value, -math.inf)


def _real(value) -> float:
    """``value`` under the library's real-number rule, with a str read by ``float()`` first."""
    if isinstance(value, str):
        value = float(value)
    return _real_number("scenario value", value)


_ints, _floats = _many(_integer), _many(_real)


def _label(value) -> str:
    """``str(value)``, refusing a list or an object."""
    if isinstance(value, (list, dict)):
        raise ValueError(value)
    return str(value)


def _optional_float(value):
    return None if value is None else _real(value)


def _study_file(args, study=None):
    """The scenario file's config, the head of its result.json, and its base seed.

    ``--reps`` and ``--seed`` win over the file's ``reps`` and ``seed``.
    """
    config = load_config(args.scenario)
    study = str(config.get("study", "")).strip() if study is None else study
    scenario_id = _given(config, id=_label).get("id", Path(args.scenario).stem)
    reps = args.reps if args.reps is not None else _given(config, reps=_integer).get("reps", 200)
    seed = args.seed if args.seed is not None else _given(config, seed=_integer).get("seed", 0)
    head = {"id": scenario_id, "study": study, "reps": reps, "metadata": {
        "generator": GENERATOR_ID,
        "package": f"hdfactor {__version__}",
        "base_seed": int(seed),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }}
    return config, head, seed


def _scenario_from_config(config: dict, seed) -> Scenario:
    _require(config, "n", "p", "r")
    given = _given(config, r=_integer, deltas=_floats, ar_coeffs=_floats, n=_integer,
                   p=_integer, noise_var=_real, k0=_integer, loading_scheme=str)
    for key, default in (("deltas", [0.0]), ("ar_coeffs", [0.5])):
        values = given.get(key, default)
        given[key] = tuple(values * given["r"] if len(values) == 1 else values)
    return Scenario(seed=int(seed), **given)


def _write_long_csv(path: Path, scenario_id: str, study, matrices: dict, labels=None) -> None:
    """``matrices[n]`` of a size-grid study, one row per replication and column.

    Columns are labelled by ``labels``, or by 1, 2, ... when omitted.
    """
    write_csv(path, ["scenario_id", "n", "p", "rep", "index", "value"],
              ((scenario_id, n, study.p_of_n[n], rep, label, value)
               for n in study.n_grid
               for rep, row in enumerate(matrices[n])
               for label, value in zip(labels or itertools.count(1), row)))


def cmd_simulate(args) -> int:
    config, doc, seed = _study_file(args)
    study, scenario_id, reps = doc["study"], doc["id"], doc["reps"]

    if study == "table1":
        _require(config, "n_grid", "p_rules")
        grid = _given(config, deltas=_floats, n_grid=_ints, p_rules=_floats,
                      r=_integer, ar_coeffs=_floats, noise_var=_real, k0=_integer)
        grid.setdefault("deltas", [0.0])
        cells = run_table1(reps=reps, base_seed=seed, **grid)
        out = _out_dir(args)
        doc["cells"] = [
            {
                "delta": delta, "n": n, "p": p, "p_rule": rule,
                "freq_correct": res.freq_correct,
                "r_hat_counts": res.r_hat_counts,
            }
            for delta, n, p, rule, res in cells
        ]
        write_csv(out / "cells.csv",
                  ["scenario_id", "delta", "n", "p", "p_rule", "reps", "freq_correct"],
                  [(scenario_id, delta, n, p, rule, reps, res.freq_correct)
                   for delta, n, p, rule, res in cells])
        for delta, n, p, rule, res in cells:
            print(f"delta={delta:g} n={n} p={p}: freq_correct={res.freq_correct:.3f}")
    elif study == "ratio-trace":
        scenario = _scenario_from_config(config, seed)
        grid = _given(config, n_grid=_ints, p_coef=_optional_float)
        result = ratio_trace_study(scenario, grid.get("n_grid", [scenario.n]), reps,
                                   p_coef=grid.get("p_coef"))
        out = _out_dir(args)
        _write_long_csv(out / "traces.csv", scenario_id, result, result.traces)
        doc["median_ratios"] = result.median_ratios
        for n in result.n_grid:
            med = result.median_ratios[n]
            print(f"n={n} p={result.p_of_n[n]}: median ratio argmin = {int(np.nanargmin(med)) + 1}")
    elif study == "two-step":
        result = two_step_study(_scenario_from_config(config, seed), reps)
        out = _out_dir(args)
        doc["one_step_counts"] = result.one_step_counts
        doc["pair_counts"] = {f"{r1}+{r2}": v for (r1, r2), v in result.pair_counts.items()}
        doc["freq_one_step"] = result.freq_one
        doc["freq_two_step"] = result.freq_two
        doc["freq_two_step_sharp"] = result.freq_two_sharp
        print(f"freq_one_step={result.freq_one:.3f} freq_two_step={result.freq_two:.3f} "
              f"freq_two_step_sharp={result.freq_two_sharp:.3f}")
    else:
        raise ParseError(
            f"scenario file must set study to table1, ratio-trace or two-step, got {study!r}"
        )
    dump_json(out / "result.json", doc)
    return 0


def cmd_rates(args) -> int:
    config, doc, seed = _study_file(args, "rates")
    _require(config, "n_grid")
    config.setdefault("loading_scheme", "all-ones")
    config.setdefault("r", 1)
    config.setdefault("p", 10)
    scenario = _scenario_from_config(config, seed)
    grid = _given(config, n_grid=_ints, tracked_j=_ints, p_coef=_optional_float)
    n_grid = grid["n_grid"]
    if n_grid:  # an empty grid is the study's own error: it has no cell to run
        _check_slope_grid(n_grid)
    study = eigen_error_study(scenario, n_grid, grid.get("tracked_j", [1, 2]), doc["reps"],
                              p_coef=grid.get("p_coef"))
    slopes = fit_error_slopes(study)

    out = _out_dir(args)
    _write_long_csv(out / "errors.csv", doc["id"], study, study.errors, study.tracked_j)
    write_csv(out / "slopes.csv", ["j", "slope", "ci_low", "ci_high"], map(astuple, slopes))
    doc["slopes"] = [asdict(fit) for fit in slopes]
    dump_json(out / "result.json", doc)
    for fit in slopes:
        print(f"eigenvalue {fit.j}: slope={fit.slope:.3f} ci=[{fit.ci_low:.3f}, {fit.ci_high:.3f}]")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    _load_library(*args.library)
    try:
        with _openblas.single_thread_blas:
            return args.func(args)
    except (ParseError, DimensionError, OSError) as exc:
        print(f"hdfactor: error: {exc}", file=sys.stderr)
        return 2
    except HDFactorError as exc:
        print(f"hdfactor: error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry: ``main`` on ``sys.argv``, then exit with its code.

    A flush that raises, such as on a closed stdout pipe, falls back to
    ``sys.exit``, so the interpreter reports it as it would without ``run``.
    """
    # Every command holds OpenBLAS at one thread; starting it there spares its idle pool.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
