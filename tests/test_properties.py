"""Property tests over random shapes, derandomized so every run draws the same cases."""

import os
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdfactor import (
    DomainError,
    Panel,
    cli,
    default_ratio_span,
    estimate,
    generate,
    m_eigenvalues,
    ratio_estimate,
    residual_projection_acf,
    save_csv,
    sym_eigen,
    two_step_estimate,
    variance_explained,
)
from helpers import (
    STUDY_INPUT_FAULTS,
    assert_second_pass_matches_dense_reference,
    random_orthogonal,
    s1_scenario,
    table1_scenario,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(
    n=st.integers(12, 40),
    extra=st.integers(1, 80),
    k0=st.integers(1, 4),
    wc=st.booleans(),
    r1=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_step_wide_second_pass_matches_dense_reference(n, extra, k0, wc, r1, seed):
    panel, _ = generate(table1_scenario(n, n + extra, seed=seed))
    assert_second_pass_matches_dense_reference(panel, k0, wc, r1)


# ---------------------------------------------------------------- invariances

def _counts(values, k0, wc):
    """Counts of both fits and the ratio count of ``m_eigenvalues``.

    The two-step fit's first pass must be the one-step fit, bit for bit.
    """
    panel = Panel(values)
    one = estimate(panel, k0, window_centering=wc)
    two = two_step_estimate(panel, k0, window_centering=wc)
    assert one.ratio_span == two.ratio_span
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    assert np.array_equal(one.ratios, two.ratios, equal_nan=True)
    assert np.array_equal(one.loadings, two.loadings[:, : two.r1_hat])
    lam = m_eigenvalues(panel, k0, window_centering=wc)
    return (one.r_hat, two.r1_hat, two.r2_hat,
            ratio_estimate(lam, default_ratio_span(panel.p, panel.n))[0])


def _first_residual_acf(fit):
    """``(None, acf)`` of the first residual direction, or ``(reason, None)`` if it is rejected."""
    try:
        return None, residual_projection_acf(fit, [fit.r_hat + 1], 3).acf
    except DomainError as exc:
        return str(exc), None


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(
    n=st.integers(20, 60),
    p=st.integers(3, 90),
    k0=st.integers(1, 3),
    wc=st.booleans(),
    k=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
@hypothesis.example(n=40, p=12, k0=1, wc=False, k=300, seed=1)
@hypothesis.example(n=40, p=70, k0=2, wc=True, k=-300, seed=2)
def test_counts_do_not_change_when_the_panel_is_scaled_by_a_power_of_two(n, p, k0, wc, k, seed):
    values = generate(table1_scenario(n, p, seed=seed))[0].values
    scaled = np.ldexp(values, k)
    assert _counts(scaled, k0, wc) == _counts(values, k0, wc)
    # The diagnostics of both fits agree too: shares, and the first residual
    # direction's autocorrelations or the reason it has none.
    fits = [estimate(Panel(v), k0, window_centering=wc) for v in (scaled, values)]
    assert_allclose(*map(variance_explained, fits), rtol=1e-12)
    (reason, acf), (expected_reason, expected_acf) = map(_first_residual_acf, fits)
    assert reason == expected_reason
    if reason is None:
        assert_allclose(acf, expected_acf, rtol=1e-12, atol=1e-14)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(
    n=st.integers(60, 150),
    p=st.integers(3, 200),
    strong=st.sampled_from([s1_scenario, table1_scenario]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_do_not_change_when_the_panel_is_rotated(n, p, strong, seed):
    # X -> U X with U orthogonal maps the pooled matrix to U M U', so the
    # spectrum, and every count taken from it, stays the same.
    values = generate(strong(n, p, seed=seed))[0].values
    assert _counts(random_orthogonal(p, seed) @ values, 1, False) == _counts(values, 1, False)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=30)
@hypothesis.given(
    n=st.integers(12, 60),
    times=st.sampled_from([2, 5, 10]),
    strong=st.sampled_from([s1_scenario, table1_scenario]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_panels_search_half_the_rank(n, times, strong, seed):
    # A centred panel has rank at most n-1; past it the spectrum is zeros and
    # roundoff, and a span reaching there would count n-1 factors.
    fit = estimate(generate(strong(n, times * n, seed=seed))[0], 1)
    assert fit.ratio_span == (n - 1) // 2
    assert fit.r_hat <= fit.ratio_span < n - 1


# ---------------------------------------------------------------- pooled eigensolver

def test_solver_reports_non_convergence_like_numpy():
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        sym_eigen(np.full((4, 4), np.nan))


# ---------------------------------------------------------------- CLI exit codes

_CELLS = ["x", "", "nan", "1e300", "7e-310", '"4"', '"', "\r", "\x00", "\x1c", "1\r2", " 5 "]


@st.composite
def _messy_csv(draw):
    """Small numeric CSV texts, some with an odd cell or two, a bare \\r or a byte-order mark."""
    cols, rows = draw(st.integers(1, 4)), draw(st.integers(0, 10))
    body = [draw(st.lists(st.floats(-10, 10).map(repr), min_size=cols, max_size=cols))
            for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if body else 0):
        row = draw(st.sampled_from(body))
        row[draw(st.integers(0, cols - 1))] = draw(st.sampled_from(_CELLS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in body) + end
    return draw(st.sampled_from(["", "\ufeff"])) + text


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(text=_messy_csv(), command=st.sampled_from(["estimate", "two-step"]),
                  k0=st.integers(-1, 4))
@hypothesis.example(text="0" * 140_000 + ",1\n2,3\n", command="estimate", k0=1)
def test_cli_fit_failures_leave_through_an_exit_code(tmp_path_factory, text, command, k0):
    base = tmp_path_factory.getbasetemp()
    path = base / "messy.csv"
    path.write_bytes(text.encode("utf-8"))
    assert cli.main([command, str(path), "--out", str(base / "out"), "--k0", str(k0)]) in range(4)


# ---------------------------------------------------------------- diagnose, simulate and rates

_ODD_VALUES = ["NaN", "1e400", "-1e400", "-3", "0", "null", '"x"', "[[1]]"]
_STUDY_KEYS = ["n", "p", "r", "seed", "reps", "n_grid", "p_rules", "p_coef", "k0", "noise_var",
               "deltas", "ar_coeffs", "tracked_j", "loading_scheme"]
# Valid small studies, each value a JSON text: n <= 60, p <= 12, at most 3 grid points.
_STUDY_BASES = {
    "table1": ("simulate", {"study": '"table1"', "n_grid": "[40, 60]", "p_rules": "[0.2]",
                            "r": "1", "reps": "2"}),
    "ratio-trace": ("simulate", {"study": '"ratio-trace"', "n": "40", "p": "8", "r": "1",
                                 "n_grid": "[40, 60]", "reps": "2"}),
    "two-step": ("simulate", {"study": '"two-step"', "n": "40", "p": "8", "r": "1", "reps": "2"}),
    "rates": ("rates", {"n": "40", "p": "8", "n_grid": "[40, 50, 60]", "reps": "2"}),
}


@st.composite
def _study_runs(draw):
    """``(command, scenario JSON text, flags)`` of a small study with up to two odd values."""
    command, config = _STUDY_BASES[draw(st.sampled_from(sorted(_STUDY_BASES)))]
    config = {**config, **draw(st.dictionaries(st.sampled_from(_STUDY_KEYS),
                                               st.sampled_from(_ODD_VALUES), max_size=2))}
    text = "{" + ", ".join(f'"{key}": {value}' for key, value in config.items()) + "}"
    flags = []
    for flag, values in (("--reps", [None, 1, 2]), ("--seed", [None, -1, 0, 3])):
        value = draw(st.sampled_from(values))
        flags += [] if value is None else [flag, value]
    return command, text, tuple(flags)


def _no_output_on_failure(tmp_path_factory, argv):
    """Run ``hdfactor`` in process; a failure must leave through 1-3 and write nothing."""
    out = tmp_path_factory.mktemp("run") / "out"
    code = cli.main([*map(str, argv), "--out", str(out)])
    assert code in range(4)
    assert code == 0 or not out.exists()
    return code


def _with_study_fault_examples(test):
    for command, text, flags, _ in STUDY_INPUT_FAULTS.values():
        test = hypothesis.example(run=(command, text, ("--reps", 2, *flags)), threads=None)(test)
    return test


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(run=_study_runs(), threads=st.sampled_from([None, "1", "2", "x"]))
@_with_study_fault_examples
@hypothesis.example(run=("rates", '{"n": 40, "p": 8, "n_grid": [40, 50, 60], "ar_coeffs": NaN}',
                         ("--reps", 2)), threads=None)
@hypothesis.example(run=("simulate", '{"study": "two-step", "n": 40, "p": 8, "r": 1}',
                         ("--reps", 1)), threads="x")
def test_study_failures_leave_through_an_exit_code(tmp_path_factory, run, threads):
    command, text, flags = run
    cfg = tmp_path_factory.mktemp("scenario") / "case.json"
    cfg.write_text(text)
    with mock.patch.dict(os.environ):
        os.environ.pop("HDFACTOR_THREADS", None)
        if threads is not None:
            os.environ["HDFACTOR_THREADS"] = threads
        code = _no_output_on_failure(tmp_path_factory, [command, "--scenario", cfg, *flags])
    # Every study that runs reads the worker count, which "x" is not.
    assert threads != "x" or code != 0


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(
    n=st.integers(5, 60),
    p=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
    max_lag=st.sampled_from([-1, 0, 1, 3, 58, 100]),
    directions=st.sampled_from([None, "", "1", "2,3", "0", "-2", "12", "100", "3,x"]),
    project=st.sampled_from([None, "one", "many", "missing"]),
    two_step=st.booleans(),
)
@hypothesis.example(n=60, p=10, seed=11, max_lag=6, directions="1", project=None, two_step=False)
@hypothesis.example(n=60, p=12, seed=11, max_lag=6, directions=None, project="many",
                    two_step=False)
def test_diagnose_failures_leave_through_an_exit_code(tmp_path_factory, n, p, seed, max_lag,
                                                      directions, project, two_step):
    base = tmp_path_factory.mktemp("diagnose")
    panel, _ = generate(table1_scenario(n, p, seed=seed))
    save_csv(panel, base / "panel.csv", "rows-are-time")
    save_csv(Panel(panel.values[:1]), base / "one.csv", "rows-are-time")
    argv = ["diagnose", base / "panel.csv", "--max-lag", max_lag]
    if directions is not None:
        argv += ["--directions", directions]
    if project is not None:
        name = {"one": "one.csv", "many": "panel.csv", "missing": "absent.csv"}[project]
        argv += ["--project", base / name]
    _no_output_on_failure(tmp_path_factory, argv + ["--two-step"] * two_step)
