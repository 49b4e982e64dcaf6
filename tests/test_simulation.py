import hashlib
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdfactor import (
    DomainError,
    EigenErrorStudy,
    HDFactorError,
    McResult,
    Scenario,
    derive_seed,
    eigen_error_study,
    estimate,
    fit_error_slopes,
    generate,
    ratio_trace_study,
    run_table1,
    two_step_study,
)
from hdfactor import _openblas, simulation
from helpers import NON_INTEGERS, integer_message, s1_scenario, s3_scenario, table1_scenario


# ---------------------------------------------------------------- generation

def test_generate_is_deterministic():
    scn = table1_scenario(100, 12, seed=99)
    panel_a, truth_a = generate(scn)
    panel_b, truth_b = generate(scn)
    assert np.array_equal(panel_a.values, panel_b.values)
    assert np.array_equal(truth_a.loadings, truth_b.loadings)
    assert np.array_equal(truth_a.noise, truth_b.noise)


@pytest.mark.parametrize("scenario, digest", [
    (s1_scenario(100, 20, seed=3),
     "c50e1c0be538fc57f84287f7c8b30ae967680982545ebe738751a5df19b416b1"),
    (s3_scenario(150, 40, seed=4),
     "1f068e35e1586ad5d7870d6d84f8f0802f610dca5d1657fa7fb3a29a709e4ad3"),
])
def test_generate_pins_panel_bits(scenario, digest):
    # Digests recorded when the AR(1) factors came from an IIR filter; the
    # plain recursion must reproduce those panels bit for bit.
    panel, _ = generate(scenario)
    assert hashlib.sha256(panel.values.tobytes()).hexdigest() == digest


def _study_digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return digest.hexdigest()


def _table1_counts(workers):
    cells = run_table1([0.0, 0.5], [40, 80], [0.2, 1.0], reps=4, base_seed=11, workers=workers)
    return _study_digest([(delta, n, p, rule, res.r_hat_counts)
                          for delta, n, p, rule, res in cells])


def _eigen_errors(workers, p_coef):
    study = eigen_error_study(s1_scenario(100, 10, seed=44), [40, 60], [1, 2], reps=3,
                              p_coef=p_coef, workers=workers)
    return _study_digest(*(study.errors[n] for n in study.n_grid))


def _ratio_traces(workers):
    study = ratio_trace_study(s3_scenario(60, 30, seed=3), [60, 80], reps=3, p_coef=0.5,
                              workers=workers)
    return _study_digest(*(study.traces[n] for n in study.n_grid))


def _two_step_counts(workers, n, p):
    study = two_step_study(s3_scenario(n, p, seed=9), reps=6, workers=workers)
    return _study_digest(study.one_step_counts, study.pair_counts, study.freq_one,
                         study.freq_two, study.freq_two_sharp)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("study, digest", [
    (_table1_counts, "cf0278b3245c1194b33526a7452d45ed02446fedc0eea4cfc9fb06900569e27f"),
    (lambda workers: _eigen_errors(workers, None),
     "b7de5a5b073b10d2b25a94f2aac13a2cdd55f60864c14ddca589e885332428b7"),
    (lambda workers: _eigen_errors(workers, 0.5),
     "04001d8be9e28865f72e13b720dfa129b3e43a87b0186ad5702349cd443087fb"),
    (_ratio_traces, "3257c0109757724cc8c72883870f96cd4b49a1c46eab9f0e24ba09771e89117e"),
    (lambda workers: _two_step_counts(workers, 100, 30),
     "aacaf8117d2582262d1cebd972bd15be6ba9094a300fe559a48cf55f988d102a"),
    (lambda workers: _two_step_counts(workers, 50, 80),
     "c6828cf5a294163801fcdc843779aff5717ef7d040d0da8b799f01ff45c0ddc1"),
], ids=["table1", "eigen-error", "eigen-error-p-coef", "ratio-trace", "two-step", "two-step-p>n"])
def test_study_outputs_pin_their_bits(study, digest, workers):
    # The worker-count tests compare worker counts with each other; these
    # digests also catch a change to the seed coordinates or the draw order
    # that every worker count would share.
    assert study(workers) == digest


def test_generate_different_seeds_differ():
    panel_a, _ = generate(table1_scenario(100, 12, seed=1))
    panel_b, _ = generate(table1_scenario(100, 12, seed=2))
    assert not np.array_equal(panel_a.values, panel_b.values)


def test_generate_all_ones_loadings_are_exactly_one():
    _, truth = generate(s1_scenario(60, 30, seed=3))
    assert np.array_equal(truth.loadings, np.ones((30, 1)))


def test_generate_all_ones_loadings_honour_the_strength_exponent():
    scn = Scenario(n=50, p=20, r=1, deltas=(0.5,), ar_coeffs=(0.7,), loading_scheme="all-ones")
    _, truth = generate(scn)
    assert_allclose(truth.loadings, np.full((20, 1), 20 ** -0.25), rtol=1e-15)
    # The eigen-error oracle is built from the same loadings.
    study = eigen_error_study(scn, [50], [1], reps=1, workers=1)
    lam1 = (20 * 20 ** -0.5) ** 2 * (0.7 / 0.51) ** 2
    assert_allclose(study.population[50], [lam1], rtol=1e-12)


def test_generate_weak_loading_norm_concentration():
    # Strength exponent 1 scales the squared column norm to E[U(-1,1)^2] = 1/3.
    norms = []
    for seed in range(100):
        scn = Scenario(n=20, p=50, r=1, deltas=(1.0,), ar_coeffs=(0.5,), seed=seed)
        _, truth = generate(scn)
        norms.append(truth.loadings[:, 0] @ truth.loadings[:, 0])
    assert 0.25 <= np.mean(norms) <= 0.5


def test_generate_factor_process_is_stationary_in_sample():
    scn = Scenario(n=5000, p=2, r=1, deltas=(0.0,), ar_coeffs=(0.7,), seed=4)
    _, truth = generate(scn)
    x = truth.factors[0] - truth.factors[0].mean()
    lag1 = (x[1:] @ x[:-1]) / (x @ x)
    assert abs(lag1 - 0.7) < 0.05


def test_generate_reconstructs_panel_from_truth():
    scn = table1_scenario(80, 9, seed=5)
    panel, truth = generate(scn)
    assert_allclose(panel.values, truth.loadings @ truth.factors + truth.noise, atol=1e-12)


def test_generate_zero_noise_variance():
    scn = replace(table1_scenario(50, 8, seed=6), noise_var=0.0)
    panel, truth = generate(scn)
    assert np.all(truth.noise == 0)
    assert_allclose(panel.values, truth.loadings @ truth.factors, atol=1e-12)


def test_noiseless_recovery_is_exact_every_time():
    for rep in range(20):
        scn = replace(table1_scenario(200, 10, seed=derive_seed(7, rep)), noise_var=0.0)
        panel, _ = generate(scn)
        assert estimate(panel, k0=1).r_hat == 3


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(n=3, p=4, r=1, deltas=(0.0,), ar_coeffs=(0.5,))
    with pytest.raises(DomainError):
        Scenario(n=50, p=2, r=3, deltas=(0.0,) * 3, ar_coeffs=(0.5,) * 3)
    for theta in (1.0, np.nan):
        with pytest.raises(DomainError, match="strictly inside"):
            Scenario(n=50, p=8, r=1, deltas=(0.0,), ar_coeffs=(theta,))
    for noise_var in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="finite and non-negative"):
            Scenario(n=50, p=8, r=1, deltas=(0.0,), ar_coeffs=(0.5,), noise_var=noise_var)
    with pytest.raises(DomainError):
        Scenario(n=50, p=8, r=1, deltas=(1.5,), ar_coeffs=(0.5,))
    with pytest.raises(DomainError):
        Scenario(n=50, p=8, r=2, deltas=(0.0, 0.0), ar_coeffs=(0.5, 0.4),
                 loading_scheme="all-ones")


def test_mc_result_derives_reps_and_frequency_from_its_histogram():
    scn = table1_scenario(50, 10, seed=0)  # r = 3
    result = McResult(scenario=scn, r_hat_counts={2: 1, 3: 3})
    assert (result.reps, result.freq_correct) == (4, 0.75)
    missed = McResult(scenario=scn, r_hat_counts={1: 2, 4: 3})
    assert (missed.reps, missed.freq_correct) == (5, 0.0)
    assert result == McResult(scn, {2: 1, 3: 3}) != missed


# ---------------------------------------------------------------- frequency grid

def test_run_table1_smoke_counts():
    cells = run_table1([0.0], [50], [0.2], reps=12, base_seed=17)
    assert len(cells) == 1
    delta, n, p, rule, result = cells[0]
    assert (delta, n, p, rule) == (0.0, 50, 10, 0.2)
    assert sum(result.r_hat_counts.values()) == 12
    assert 0.0 <= result.freq_correct <= 1.0


def test_run_table1_independent_of_worker_count():
    kwargs = dict(deltas=[0.0], n_grid=[60, 100], p_rules=[0.2, 0.5], reps=8, base_seed=23)
    serial = run_table1(workers=1, **kwargs)
    for workers in (2, 3):
        threaded = run_table1(workers=workers, **kwargs)
        assert [c[:4] for c in serial] == [c[:4] for c in threaded]
        for (_, _, _, _, a), (_, _, _, _, b) in zip(serial, threaded):
            assert a.r_hat_counts == b.r_hat_counts
            assert a.freq_correct == b.freq_correct


def test_run_table1_cells_do_not_depend_on_grid_shape():
    full = run_table1([0.0], [60, 100], [0.2], reps=6, base_seed=31)
    alone = run_table1([0.0], [100], [0.2], reps=6, base_seed=31)
    target = [c for c in full if c[1] == 100][0]
    assert target[4].r_hat_counts == alone[0][4].r_hat_counts


@pytest.mark.parametrize("study", [
    lambda: run_table1([0.0], [], [0.2], reps=3, base_seed=1),
    lambda: run_table1([0.0], [60], [], reps=3, base_seed=1),
    lambda: run_table1([], [60], [0.2], reps=3, base_seed=1),
    lambda: ratio_trace_study(table1_scenario(60, 10, seed=1), [], reps=3),
    lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [], [1], reps=3),
    lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [], [1], reps=0, p_coef=0.5),
], ids=["table1-n-grid", "table1-p-rules", "table1-deltas", "ratio-trace", "eigen-error",
        "eigen-error-zero-reps"])
def test_an_empty_grid_raises_before_any_replication(monkeypatch, study):
    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    with pytest.raises(DomainError, match="need at least one grid cell"):
        study()



@pytest.mark.parametrize("study, message", [
    (lambda: ratio_trace_study(table1_scenario(60, 10, seed=1), [60, 80, 60], reps=3),
     "n_grid repeats n = 60"),
    (lambda: ratio_trace_study(table1_scenario(60, 10, seed=1), [80, 60, 80], reps=3, p_coef=0.25),
     "n_grid repeats n = 80"),
    (lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [60, 80, 60, 100], [1], reps=3),
     "n_grid repeats n = 60"),
    (lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [60, 60], [1], reps=0, p_coef=0.5),
     "n_grid repeats n = 60"),
    (lambda: run_table1([0.0], [60, 80, 60], [0.2], reps=3, base_seed=1),
     "n_grid repeats n = 60"),
    (lambda: run_table1([0.0, 0.5, 0.0], [60], [0.2], reps=3, base_seed=1),
     "deltas repeats delta = 0.0"),
    (lambda: run_table1([0.0], [60], [0.2, 0.2], reps=3, base_seed=1),
     "p_rules repeats rule = 0.2"),
    (lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [60, 80, 100], [1, 2, 1], reps=3),
     "tracked_j repeats j = 1"),
], ids=["ratio-trace", "ratio-trace-p-coef", "eigen-error", "eigen-error-zero-reps", "table1",
        "table1-deltas", "table1-p-rules", "eigen-error-tracked-j"])
def test_a_repeated_n_raises_before_any_replication(monkeypatch, study, message):
    # A repeated n, delta or rule would run its replications twice, and a
    # repeated n or tracked j would enter a slope fit twice.
    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        study()


_SCENARIO_ARGS = dict(n=60, p=10, r=1, deltas=(0.0,), ar_coeffs=(0.5,), k0=1, seed=1)
# Each integer input of a scenario, a study or a seed, as (id, call on a value, label, range).
_STUDY_INTEGERS = [
    *[(f"scenario-{field}", lambda v, field=field: Scenario(**{**_SCENARIO_ARGS, field: v}),
       field, span)
      for field, span in [("n", "[4, inf)"), ("p", "[1, inf)"), ("r", "[1, p] = [1, 10]"),
                          ("k0", "[1, n-2] = [1, 58]"), ("seed", "[0, inf)")]],
    ("table1-n", lambda v: run_table1([0.0], [60, v], [0.2], reps=3, base_seed=1), "n",
     "[4, inf)"),
    ("table1-r", lambda v: run_table1([0.0], [60], [0.2], reps=3, base_seed=1, r=v), "r",
     "[1, inf)"),
    ("table1-reps", lambda v: run_table1([0.0], [60], [0.2], reps=v, base_seed=1), "reps",
     "[1, inf)"),
    ("table1-workers",
     lambda v: run_table1([0.0], [60], [0.2], reps=3, base_seed=1, workers=v), "workers",
     "[1, inf)"),
    ("ratio-trace-n", lambda v: ratio_trace_study(table1_scenario(60, 10, seed=1), [v], reps=3),
     "n", "[4, inf)"),
    ("eigen-error-tracked-j",
     lambda v: eigen_error_study(s1_scenario(60, 10, seed=1), [60, 80, 100], [1, v], reps=3),
     "tracked index", "[1, inf)"),
    ("two-step-reps", lambda v: two_step_study(s1_scenario(60, 10, seed=1), reps=v), "reps",
     "[1, inf)"),
    ("derive-seed", lambda v: derive_seed(1, v), "seed coordinate", "[0, inf)"),
]


@pytest.mark.parametrize("study, message", [
    (lambda: run_table1([0.0], [60], [float("nan")], reps=3, base_seed=1),
     "p = nan * 60 is not a finite dimension"),
    (lambda: run_table1([0.0], [60], [1e400], reps=3, base_seed=1),
     "p = inf * 60 is not a finite dimension"),
    (lambda: ratio_trace_study(table1_scenario(60, 10, seed=1), [60], reps=3, p_coef=float("nan")),
     "p = nan * 60 is not a finite dimension"),
    (lambda: eigen_error_study(s1_scenario(60, 10, seed=1), [60, 80, 100], [1], reps=3,
                               p_coef=float("-inf")),
     "p = -inf * 60 is not a finite dimension"),
    (lambda: run_table1([0.0], [60], [0.2], reps=3, base_seed=-1),
     "seed must be an integer in [0, inf), got -1"),
    (lambda: ratio_trace_study(s1_scenario(60, 10, seed=-3), [60], reps=3),
     "seed must be an integer in [0, inf), got -3"),
    (lambda: run_table1([0.0], [60], [0.01], reps=3, base_seed=1, r=1),
     "ratio estimation needs p >= 2, got p = 1"),
    (lambda: ratio_trace_study(s1_scenario(60, 1, seed=1), [60], reps=3),
     "ratio estimation needs p >= 2, got p = 1"),
    (lambda: two_step_study(s1_scenario(60, 1, seed=1), reps=3),
     "ratio estimation needs p >= 2, got p = 1"),
    (lambda: Scenario(n=60, p=10, r=1, deltas=(0.0,), ar_coeffs=(0.5,), k0=1.5, seed=1),
     "k0 must be an integer in [1, n-2] = [1, 58], got 1.5"),
    (lambda: run_table1([0.0], [60], [0.2], reps=3, base_seed=1, k0=2.5),
     "k0 must be an integer in [1, n-2] = [1, 58], got 2.5"),
    (lambda: run_table1([0.0], [60], [0.2], reps=3, base_seed=1, workers=0),
     "workers must be an integer in [1, inf), got 0"),
    (lambda: two_step_study(s1_scenario(60, 10, seed=1), reps=3, workers=-4),
     "workers must be an integer in [1, inf), got -4"),
] + [
    (lambda call=call, value=value: call(value), integer_message(label, span, value))
    for _, call, label, span in _STUDY_INTEGERS for value in NON_INTEGERS.values()
], ids=["table1-nan-rule", "table1-overflowing-rule", "ratio-trace-nan-p-coef",
        "eigen-error-infinite-p-coef", "table1-negative-seed", "negative-seed",
        "table1-p-of-1", "ratio-trace-p-of-1", "two-step-p-of-1", "scenario-fractional-k0",
        "table1-fractional-k0", "table1-zero-workers", "two-step-negative-workers"]
    + [f"{name}-{kind}" for name, _, _, _ in _STUDY_INTEGERS for kind in NON_INTEGERS])
def test_a_bad_study_input_raises_before_any_replication(monkeypatch, study, message):
    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        study()


# ---------------------------------------------------------------- error study

def test_eigen_error_study_requires_deterministic_loadings():
    with pytest.raises(DomainError):
        eigen_error_study(table1_scenario(100, 10, seed=0), [100], [1], reps=2)


def test_eigen_error_study_shapes_and_oracle():
    scn = s1_scenario(100, 10, seed=41)
    study = eigen_error_study(scn, [100, 200], [1, 2], reps=5)
    assert study.errors[100].shape == (5, 2)
    assert study.p_of_n == {100: 10, 200: 10}
    lam1 = 100 * (0.7 / 0.51) ** 2
    assert_allclose(study.population[100], [lam1, 0.0], rtol=1e-12, atol=1e-10)


def test_eigen_error_study_with_p_coefficient():
    scn = s1_scenario(100, 10, seed=42)
    study = eigen_error_study(scn, [100, 200], [1], reps=3, p_coef=0.5)
    assert study.p_of_n == {100: 50, 200: 100}


def test_eigen_error_study_independent_of_worker_count():
    scn = s1_scenario(100, 10, seed=44)
    kwargs = dict(n_grid=[40, 60, 100], tracked_j=[1, 2], reps=5, p_coef=0.5)
    serial = eigen_error_study(scn, workers=1, **kwargs)
    for workers in (2, 3):
        threaded = eigen_error_study(scn, workers=workers, **kwargs)
        assert list(threaded.errors) == [40, 60, 100]
        for n in serial.n_grid:
            assert serial.errors[n].tobytes() == threaded.errors[n].tobytes()
            assert serial.population[n].tobytes() == threaded.population[n].tobytes()


@pytest.mark.parametrize("tracked_j, message", [
    ([1, 6], "tracked index 6 exceeds dimension 5"),
    ([0, 1], "tracked index must be an integer in [1, inf), got 0"),
    ([-1], "tracked index must be an integer in [1, inf), got -1"),
    ([], "need at least one tracked eigenvalue"),
], ids=["above-p", "zero", "negative", "empty"])
def test_eigen_error_study_rejects_a_tracked_index_outside_1_to_p_before_any_replication(
        monkeypatch, tracked_j, message):
    def no_replications(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(simulation, "generate", no_replications)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        eigen_error_study(s1_scenario(100, 10, seed=45), [40, 10], tracked_j, reps=3, p_coef=0.5,
                          workers=2)


def test_fit_error_slopes_recovers_synthetic_rate():
    scn = s1_scenario(100, 10, seed=0)
    n_grid = (100, 200, 400, 800)
    errors = {n: np.full((5, 1), 50.0 / n) for n in n_grid}
    study = EigenErrorStudy(
        scenario=scn,
        n_grid=n_grid,
        p_of_n={n: 10 for n in n_grid},
        tracked_j=(1,),
        errors=errors,
        population={n: np.array([1.0]) for n in n_grid},
    )
    fit = fit_error_slopes(study)[0]
    assert_allclose(fit.slope, -1.0, atol=1e-10)
    assert fit.ci_low <= -1.0 <= fit.ci_high
    with pytest.raises(DomainError, match="^need at least three grid points to fit a slope$"):
        fit_error_slopes(replace(study, n_grid=n_grid[:2]))


# ---------------------------------------------------------------- ratio traces

def test_ratio_trace_study_smoke_on_tiny_panel():
    scn = Scenario(n=6, p=3, r=1, deltas=(0.0,), ar_coeffs=(0.5,), k0=1, seed=51)
    study = ratio_trace_study(scn, [6], reps=4)
    assert study.traces[6].shape == (4, 1)
    assert np.isfinite(study.median_ratios[6]).all()


def test_ratio_trace_study_independent_of_worker_count():
    scn = table1_scenario(100, 20, seed=52)
    kwargs = dict(n_grid=[40, 60, 80], reps=5, p_coef=1.5)
    serial = ratio_trace_study(scn, workers=1, **kwargs)
    for workers in (2, 3):
        threaded = ratio_trace_study(scn, workers=workers, **kwargs)
        assert list(threaded.traces) == [40, 60, 80]
        for n in serial.n_grid:
            assert serial.traces[n].tobytes() == threaded.traces[n].tobytes()
            assert serial.median_ratios[n].tobytes() == threaded.median_ratios[n].tobytes()


def test_ratio_trace_medians_leave_a_column_with_no_value_nan():
    # A noiseless one-factor panel has a rank-one pooled matrix, so every
    # index past 1 is masked in every replication: its median is NaN, and
    # taking it raises no warning (pytest turns RuntimeWarning into errors).
    scn = Scenario(n=60, p=8, r=1, deltas=(0.0,), ar_coeffs=(0.7,), k0=1, noise_var=0.0, seed=53)
    medians = ratio_trace_study(scn, [60], reps=3).median_ratios[60]
    assert np.isfinite(medians[0]) and np.isnan(medians[1:]).all()
    # Where no column is all-NaN the medians keep nanmedian's bits.
    noisy = ratio_trace_study(table1_scenario(100, 20, seed=52), [60, 80], reps=5)
    for n, trace in noisy.traces.items():
        assert noisy.median_ratios[n].tobytes() == np.nanmedian(trace, axis=0).tobytes()
    trace = np.array([[0.2, np.nan, np.nan], [np.nan, 0.5, np.nan], [0.4, 0.7, np.nan]])
    assert_allclose(simulation._column_medians(trace), [0.3, 0.6, np.nan])
    assert simulation._column_medians(trace[:, :2]).tobytes() == \
        np.nanmedian(trace[:, :2], axis=0).tobytes()


def test_ratio_trace_study_mixed_strength_signature():
    # Mixed-strength design: the sharpest median drop sits at the strong
    # factor count and the second-sharpest at the full count.
    study = ratio_trace_study(s3_scenario(1600, 800, seed=52), [1600], reps=25)
    medians = study.median_ratios[1600]
    order = np.argsort(medians)
    assert order[0] + 1 == 2
    assert order[1] + 1 == 3


# ---------------------------------------------------------------- two-step study

def test_two_step_study_single_replication_is_well_formed():
    result = two_step_study(s3_scenario(200, 40, seed=61), reps=1)
    assert result.reps == 1
    assert sum(result.one_step_counts.values()) == 1
    assert sum(result.pair_counts.values()) == 1
    for freq in (result.freq_one, result.freq_two, result.freq_two_sharp):
        assert freq in (0.0, 1.0)


def test_two_step_study_all_strong_factors():
    # With every factor strong the first pass already finds them all, so
    # counting second-pass factors only when that pass shows a sharp
    # minimum leaves the two procedures equally accurate (pilot: both hit
    # frequency 1.0 at this design), while the raw two-pass sum overcounts.
    result = two_step_study(table1_scenario(400, 80, seed=62), reps=60)
    assert abs(result.freq_one - result.freq_two_sharp) <= 0.1
    assert result.freq_two <= result.freq_one


def test_two_step_study_deterministic_across_workers():
    scn = s3_scenario(150, 30, seed=63)
    serial = two_step_study(scn, reps=6, workers=1)
    threaded = two_step_study(scn, reps=6, workers=2)
    assert serial.pair_counts == threaded.pair_counts
    assert serial.freq_two == threaded.freq_two


# ---------------------------------------------------------------- thread budget

BLAS_API = _openblas.threads_api()


def test_worker_count_defaults_to_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("HDFACTOR_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert simulation.worker_count() == 3
    monkeypatch.setenv("HDFACTOR_THREADS", "2")
    assert simulation.worker_count() == 2


def test_worker_count_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delenv("HDFACTOR_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert simulation.worker_count() == 6


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS thread count getter, with the count set to 2 for the test."""
    if BLAS_API is None:
        yield None
        return
    get_threads, set_threads = BLAS_API
    original = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(original)


def test_concurrent_studies_equal_their_serial_results(blas_at_two_threads):
    scn = table1_scenario(400, 200, seed=71)
    grids = {"a": [400], "b": [200, 300]}
    serial = {key: ratio_trace_study(scn, grid, reps=4, workers=2) for key, grid in grids.items()}
    results, errors = {}, []

    def run(key):
        try:
            results[key] = ratio_trace_study(scn, grids[key], reps=4, workers=2)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(key,)) for key in grids]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors
    if blas_at_two_threads is not None:
        assert blas_at_two_threads() == 2
    for key in grids:
        for n in grids[key]:
            assert np.array_equal(results[key].traces[n], serial[key].traces[n], equal_nan=True)


def test_blas_hold_survives_many_overlapping_holders(blas_at_two_threads):
    inside = []

    def hold():
        for _ in range(3000):
            with _openblas.single_thread_blas:
                if blas_at_two_threads is not None:
                    inside.append(blas_at_two_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert _openblas.single_thread_blas._holders == 0
    if blas_at_two_threads is not None:
        assert set(inside) == {1}
        assert blas_at_two_threads() == 2


@pytest.mark.skipif(BLAS_API is None, reason="numpy's bundled OpenBLAS was not found")
@pytest.mark.parametrize("study", ["table1", "eigen-error", "two-step"])
@pytest.mark.parametrize("raising", [False, True], ids=["returns", "raises"])
def test_studies_run_single_thread_blas_and_restore_the_count(monkeypatch, tmp_path,
                                                              blas_at_two_threads, study, raising):
    get_threads = blas_at_two_threads
    # Replications run in worker processes, so the spies report through a
    # file that every process appends to.
    log = tmp_path / "seen.txt"

    def spy(name, fails):
        real = getattr(simulation, name)

        def call(*args):
            with open(log, "a") as handle:
                handle.write(f"{name} {get_threads()}\n")
            if fails:
                raise RuntimeError("replication failed")
            return real(*args)

        monkeypatch.setattr(simulation, name, call)

    spy("generate", raising)
    spy("population_m", False)
    run = {
        "table1": lambda: run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=2),
        "eigen-error": lambda: eigen_error_study(s1_scenario(60, 10, seed=5), [60], [1], reps=4,
                                                 workers=2),
        "two-step": lambda: two_step_study(s3_scenario(100, 20, seed=5), reps=4, workers=2),
    }[study]

    def attempt():
        if raising:
            with pytest.raises(RuntimeError, match="replication failed"):
                run()
        else:
            run()

    attempt()
    assert get_threads() == 2
    # A study nested in another hold leaves the count pinned until the
    # outer hold ends.
    with _openblas.single_thread_blas:
        attempt()
        assert get_threads() == 1
    assert get_threads() == 2
    seen = [(name, int(count)) for name, count in map(str.split, log.read_text().splitlines())]
    assert {count for _, count in seen} == {1}
    assert ("population_m" in {name for name, _ in seen}) == (study == "eigen-error")


# ---------------------------------------------------------------- worker processes

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _table1_with(monkeypatch, draw, workers=2, reps=4):
    """``run_table1`` on one small cell with ``draw(scn)`` in place of ``generate``."""
    monkeypatch.setattr(simulation, "generate", draw)
    return run_table1([0.0], [60], [0.2], reps=reps, base_seed=5, workers=workers)


def test_a_worker_exception_reaches_the_caller_with_its_type_and_message(monkeypatch):
    # Rep 3 is the second worker's; the first worker's replications succeed.
    failing = derive_seed(5, 0, 60, 12, 3)
    real = simulation.generate

    def draw(scn):
        if scn.seed == failing:
            raise LookupError(f"no panel for seed {scn.seed}")
        return real(scn)

    with pytest.raises(LookupError) as caught:
        _table1_with(monkeypatch, draw)
    assert type(caught.value) is LookupError
    assert str(caught.value) == f"no panel for seed {failing}"
    _assert_no_child_left()


@pytest.mark.parametrize("death, how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {signal.SIGKILL.value}"),
], ids=["exits", "killed"])
def test_a_worker_that_dies_without_a_result_is_named(monkeypatch, death, how):
    parent = os.getpid()
    outcome = []

    def draw(scn):
        if os.getpid() == parent:
            raise AssertionError("a replication ran in the calling process")
        death()

    def run():
        try:
            _table1_with(monkeypatch, draw)
        except Exception as exc:  # checked below, in the test's thread
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0], HDFactorError), outcome
    assert re.fullmatch(rf"replication worker [01] \(pid \d+\) ended without a result \({how}\)",
                        str(outcome[0]))
    _assert_no_child_left()


def test_an_interrupted_study_kills_and_reaps_its_workers(monkeypatch):
    def draw(scn):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            _table1_with(monkeypatch, draw)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_a_study_starts_at_most_one_worker_per_replication(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    cells = _table1_with(monkeypatch, simulation.generate, workers=8, reps=3)
    assert len(forks) == 3
    assert cells == run_table1([0.0], [60], [0.2], reps=3, base_seed=5, workers=1)
    _assert_no_child_left()


def test_only_forked_workers_keep_freed_memory(monkeypatch, tmp_path):
    log = tmp_path / "seen.txt"
    real_keep, real_generate = simulation._keep_freed_memory, simulation.generate

    def logged(name, real):
        def call(*args):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {name}\n")
            return real(*args)
        return call

    monkeypatch.setattr(simulation, "_keep_freed_memory", logged("keep", real_keep))
    monkeypatch.setattr(simulation, "generate", logged("generate", real_generate))
    run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=2)
    seen = [line.split() for line in log.read_text().splitlines()]
    pids = {pid for pid, _ in seen}
    assert len(pids) == 2 and str(os.getpid()) not in pids
    for pid in pids:
        # Once per worker, before its first replication.
        assert [name for p, name in seen if p == pid] == ["keep", "generate", "generate"]
    log.unlink()
    run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=1)
    two_step_study(s3_scenario(100, 20, seed=5), reps=1, workers=2)
    assert {name for _, name in (line.split() for line in log.read_text().splitlines())} == {
        "generate"}


@pytest.mark.parametrize("refuses", [False, True], ids=["no-mallopt", "mallopt-returns-0"])
def test_a_study_runs_the_same_where_malloc_cannot_keep_freed_memory(monkeypatch, tmp_path,
                                                                     refuses):
    log = tmp_path / "calls.txt"

    def refusing(param, value):
        with open(log, "a") as handle:
            handle.write(f"{param} {value}\n")
        return 0

    monkeypatch.setattr(simulation, "_mallopt", lambda: refusing if refuses else None)
    cells = run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=2)
    assert cells == run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=1)
    if refuses:  # a refused first setting stops the second, in each worker
        assert log.read_text().splitlines() == [f"-3 {32 << 20}"] * 2
    _assert_no_child_left()


def test_a_finished_study_leaves_no_child_process():
    run_table1([0.0], [60], [0.2], reps=4, base_seed=5, workers=2)
    _assert_no_child_left()


def test_importing_the_cli_loads_no_process_pool_module():
    # Reading a library name through the cli loads the library, simulation included.
    code = ("import sys, hdfactor.cli; hdfactor.cli.run_table1; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
