"""Shared scenario builders and brute-force oracles for the test suite."""

import numpy as np

from hdfactor import (
    Panel,
    Scenario,
    build_m,
    default_ratio_span,
    ratio_estimate,
    sym_eigen,
    two_step_estimate,
)


# Values no integer input of the library accepts, by test id.
NON_INTEGERS = {"fraction": 2.5, "bool": True, "numpy-bool": np.True_, "nan": float("nan"),
                "inf": float("inf"), "string": "3"}


def integer_message(label, span, value):
    """The library's message for an integer input ``value`` outside ``span``."""
    return f"{label} must be an integer in {span}, got {value!r}"


def s1_scenario(n, p=None, seed=0):
    """Single strong factor: all-ones loadings, AR(1) coefficient 0.7."""
    return Scenario(
        n=n,
        p=n // 2 if p is None else p,
        r=1,
        deltas=(0.0,),
        ar_coeffs=(0.7,),
        k0=1,
        loading_scheme="all-ones",
        seed=seed,
    )


def table1_scenario(n, p, delta=0.0, seed=0):
    """Three equal-strength factors with AR coefficients (0.6, -0.5, 0.3)."""
    return Scenario(
        n=n,
        p=p,
        r=3,
        deltas=(delta, delta, delta),
        ar_coeffs=(0.6, -0.5, 0.3),
        k0=1,
        seed=seed,
    )


def s3_scenario(n, p, seed=0):
    """Two strong factors plus one weak (strength exponent 0.5)."""
    return Scenario(
        n=n,
        p=p,
        r=3,
        deltas=(0.0, 0.0, 0.5),
        ar_coeffs=(0.6, -0.5, 0.3),
        k0=1,
        seed=seed,
    )


def naive_autocov(values, k):
    """O(n p^2) double-loop lag-k autocovariance with full-sample centering."""
    values = np.asarray(values, dtype=float)
    p, n = values.shape
    mean = values.mean(axis=1)
    out = np.zeros((p, p))
    for t in range(n - k):
        lead = values[:, t + k] - mean
        lag = values[:, t] - mean
        for i in range(p):
            for j in range(p):
                out[i, j] += lead[i] * lag[j]
    return out / n


def random_orthogonal(size, seed):
    """Haar-ish orthogonal matrix from a QR factorization."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def dense_reference(panel, k0, wc):
    """Spectrum, eigenvectors and ratio search of the explicit p x p matrix."""
    eigenvalues, eigenvectors = sym_eigen(build_m(panel, k0, window_centering=wc))
    r_hat, ratios = ratio_estimate(eigenvalues, default_ratio_span(panel.p, panel.n))
    return eigenvalues, eigenvectors, r_hat, ratios


def assert_second_pass_matches_dense_reference(panel, k0, wc, r1):
    """Two-step second pass against the dense fit of the explicitly deflated panel."""
    model = two_step_estimate(panel, k0, r1_override=r1, window_centering=wc)
    loadings1 = model.loadings[:, :r1]
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    deflated = Panel(centered - loadings1 @ (loadings1.T @ centered))
    eigenvalues, _, r2, ratios2 = dense_reference(deflated, k0, wc)
    assert np.abs(model.eigenvalues_step2 - eigenvalues).max() <= 1e-12 * eigenvalues[0]
    assert model.r2_hat == r2
    assert np.array_equal(np.isnan(model.ratios_step2), np.isnan(ratios2))
    assert model.loadings.shape == (panel.p, r1 + r2)


# Study inputs that must stop with exit 1 before any replication: a p rule
# or p_coef whose coef * n is not finite, a negative seed, p = 1 in a study
# that counts factors by the ratio rule, an integer out of its range, and a
# rates grid too short to fit a slope.  Each is (command, scenario JSON,
# extra flags, message).
STUDY_INPUT_FAULTS = {
    "table1-nan-rule": (
        "simulate", '{"study": "table1", "n_grid": [60], "p_rules": [NaN]}', (),
        "p = nan * 60 is not a finite dimension"),
    "table1-overflowing-rule": (
        "simulate", '{"study": "table1", "n_grid": [60], "p_rules": [1e400]}', (),
        "p = inf * 60 is not a finite dimension"),
    "ratio-trace-infinite-p-coef": (
        "simulate", '{"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "p_coef": Infinity}', (),
        "p = inf * 60 is not a finite dimension"),
    "rates-nan-p-coef": (
        "rates", '{"n": 60, "p": 10, "n_grid": [60, 80, 100], "p_coef": NaN}', (),
        "p = nan * 60 is not a finite dimension"),
    "negative-seed-in-file": (
        "simulate", '{"study": "ratio-trace", "n": 60, "p": 10, "r": 1, "seed": -3}', (),
        "seed must be an integer in [0, inf), got -3"),
    "negative-seed-flag": (
        "simulate", '{"study": "table1", "n_grid": [60], "p_rules": [0.2]}', ("--seed", -1),
        "seed must be an integer in [0, inf), got -1"),
    "rates-negative-seed-flag": (
        "rates", '{"n": 60, "p": 10, "n_grid": [60, 80, 100]}', ("--seed", -1),
        "seed must be an integer in [0, inf), got -1"),
    "ratio-trace-p-of-1": (
        "simulate", '{"study": "ratio-trace", "n": 60, "p": 1, "r": 1}', (),
        "ratio estimation needs p >= 2, got p = 1"),
    "two-step-p-of-1": (
        "simulate", '{"study": "two-step", "n": 60, "p": 1, "r": 1}', (),
        "ratio estimation needs p >= 2, got p = 1"),
    "table1-p-of-1": (
        "simulate", '{"study": "table1", "n_grid": [60], "p_rules": [0.01], "r": 1}', (),
        "ratio estimation needs p >= 2, got p = 1"),
    "table1-n-of-3": (
        "simulate", '{"study": "table1", "n_grid": [3, 60], "p_rules": [0.2]}', (),
        "n must be an integer in [4, inf), got 3"),
    "ratio-trace-r-above-p": (
        "simulate", '{"study": "ratio-trace", "n": 60, "p": 4, "r": 5}', (),
        "r must be an integer in [1, p] = [1, 4], got 5"),
    "two-step-r-of-2-to-the-40": (
        "simulate", '{"study": "two-step", "n": 60, "p": 10, "r": 1099511627776}', (),
        "r must be an integer in [1, p] = [1, 10], got 1099511627776"),
    "rates-two-sizes": (
        "rates", '{"n": 60, "p": 10, "n_grid": [400, 800]}', (),
        "need at least three grid points to fit a slope"),
    "two-step-unknown-loading-scheme": (
        "simulate", '{"study": "two-step", "n": 60, "p": 10, "r": 1, "loading_scheme": "x"}', (),
        "loading scheme must be one of ('uniform-scaled', 'all-ones'), got 'x'"),
    # Sizes whose allocation fails at once: a list of 2**40 deltas, and the
    # 2**40 x 1 loadings that generate draws first.
    "two-step-p-and-r-of-2-to-the-40": (
        "simulate", '{"study": "two-step", "n": 60, "p": 1099511627776, "r": 1099511627776}', (),
        "out of memory"),
    "two-step-p-of-2-to-the-40": (
        "simulate", '{"study": "two-step", "n": 60, "p": 1099511627776, "r": 1}', (),
        "Unable to allocate 8.00 TiB for an array with shape (1099511627776, 1) and data type"
        " float64"),
}
