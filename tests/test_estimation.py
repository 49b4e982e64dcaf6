import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdfactor import (
    DimensionError,
    DomainError,
    Panel,
    build_m,
    default_ratio_span,
    estimate,
    generate,
    m_eigenvalues,
    population_m,
    ratio_estimate,
    sample_autocov,
    sym_eigen,
    two_step_estimate,
)
from hdfactor import estimation
from helpers import (
    NON_INTEGERS,
    assert_second_pass_matches_dense_reference,
    dense_reference,
    integer_message,
    naive_autocov,
    random_orthogonal,
    s1_scenario,
    s3_scenario,
    table1_scenario,
)


def ar1_panel(n, p, theta=0.7, noise=1.0, seed=0, loadings=None):
    """Panel with one AR(1) factor; loadings default to all ones."""
    rng = np.random.default_rng(seed)
    x = np.empty(n + 100)
    x[0] = rng.standard_normal()
    for t in range(1, n + 100):
        x[t] = theta * x[t - 1] + rng.standard_normal()
    x = x[100:]
    a = np.ones((p, 1)) if loadings is None else np.asarray(loadings, float).reshape(p, 1)
    return Panel(a @ x[None, :] + noise * rng.standard_normal((p, n)))


# ---------------------------------------------------------------- autocovariance

def test_autocov_constant_panel_is_zero():
    panel = Panel(np.full((3, 10), 4.2))
    for k in (0, 1, 5):
        assert_allclose(sample_autocov(panel, k), np.zeros((3, 3)), atol=1e-12)


def test_autocov_alternating_scalar_example():
    panel = Panel([[1.0, -1.0, 1.0, -1.0]])
    assert_allclose(sample_autocov(panel, 1), [[-0.75]], atol=1e-15)


def test_autocov_lag0_matches_naive_covariance():
    rng = np.random.default_rng(21)
    panel = Panel(rng.standard_normal((4, 25)))
    assert_allclose(sample_autocov(panel, 0), naive_autocov(panel.values, 0), atol=1e-13)


def test_autocov_matches_double_loop_oracle():
    rng = np.random.default_rng(22)
    for trial in range(8):
        values = rng.standard_normal((4, 30)) * rng.uniform(0.5, 8)
        panel = Panel(values)
        for k in (0, 1, 3, 7):
            fast = sample_autocov(panel, k)
            slow = naive_autocov(values, k)
            scale = max(np.abs(slow).max(), 1e-300)
            assert np.abs(fast - slow).max() <= 1e-12 * scale


def test_autocov_window_centering_matches_its_own_oracle():
    rng = np.random.default_rng(23)
    values = rng.standard_normal((3, 20)) + 5.0
    panel = Panel(values)
    k = 2
    n = 20
    lead = values[:, k:] - values[:, k:].mean(axis=1, keepdims=True)
    lag = values[:, : n - k] - values[:, : n - k].mean(axis=1, keepdims=True)
    expected = lead @ lag.T / n
    assert_allclose(sample_autocov(panel, k, window_centering=True), expected, atol=1e-13)


def test_autocov_insufficient_data():
    panel = Panel(np.random.default_rng(0).standard_normal((2, 6)))
    with pytest.raises(DomainError):
        sample_autocov(panel, 5)
    with pytest.raises(DomainError):
        sample_autocov(panel, -1)


# ---------------------------------------------------------------- pooled matrix

def test_build_m_single_lag_is_outer_square():
    panel = ar1_panel(60, 4, seed=31)
    sigma1 = sample_autocov(panel, 1)
    assert_allclose(build_m(panel, 1), sigma1 @ sigma1.T, atol=1e-12)


def test_build_m_invariants():
    panel = ar1_panel(80, 6, seed=32)
    m = build_m(panel, 4)
    total = np.zeros((6, 6))
    for k in range(1, 5):
        sigma = sample_autocov(panel, k)
        total += sigma @ sigma.T
    scale = np.abs(m).max()
    assert np.abs(m - total).max() <= 1e-10 * scale
    assert np.abs(m - m.T).max() <= 1e-12 * scale
    lam = np.linalg.eigvalsh(m)
    assert lam.min() >= -1e-8 * lam.max()


def test_build_m_white_noise_spectrum_is_small():
    # Frozen Monte Carlo fixture: over 200 seeds the largest eigenvalue for
    # i.i.d. noise at (n, p, k0) = (2000, 5, 5) never exceeded 0.033.
    rng = np.random.default_rng(4040)
    panel = Panel(rng.standard_normal((5, 2000)))
    assert np.linalg.eigvalsh(build_m(panel, 5)).max() < 0.05


def test_build_m_noiseless_rank_one():
    panel = ar1_panel(400, 2, noise=0.0, seed=33, loadings=[1.0, 2.0])
    lam, _ = sym_eigen(build_m(panel, 1))
    assert lam[1] / lam[0] < 1e-8


def test_build_m_k0_out_of_range():
    panel = ar1_panel(10, 2, seed=34)
    with pytest.raises(DomainError):
        build_m(panel, 9)
    with pytest.raises(DomainError):
        build_m(panel, 0)


# ---------------------------------------------------------------- eigenanalysis

def test_sym_eigen_diagonal():
    eigenvalues, eigenvectors = sym_eigen(np.diag([3.0, 1.0, 0.0]))
    assert_allclose(eigenvalues, [3.0, 1.0, 0.0], atol=1e-14)
    assert_allclose(eigenvectors, np.eye(3), atol=1e-14)


def test_sym_eigen_two_by_two_hand_example():
    eigenvalues, eigenvectors = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1 / np.sqrt(2)
    assert_allclose(eigenvectors[:, 0], [s, s], atol=1e-12)
    assert_allclose(eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_sym_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(41)
    for trial in range(5):
        root = rng.standard_normal((10, 10))
        m = root @ root.T
        eigenvalues, q = sym_eigen(m)
        assert np.abs(q.T @ q - np.eye(10)).max() <= 1e-10
        rebuilt = q @ np.diag(eigenvalues) @ q.T
        assert np.abs(rebuilt - m).max() <= 1e-8 * np.abs(m).max()


def test_sym_eigen_sign_convention():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((6, 6))
    m = m @ m.T
    _, vectors = sym_eigen(m)
    for col in range(6):
        lead = np.abs(vectors[:, col]).argmax()
        assert vectors[lead, col] > 0


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(DomainError):
        sym_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))


# ---------------------------------------------------------------- ratio estimator

def test_ratio_estimate_forced_argmin():
    r_hat, ratios = ratio_estimate([8.0, 4.0, 2.0, 0.002, 0.0019], 3)
    assert r_hat == 3
    assert_allclose(ratios, [0.5, 0.5, 0.001], atol=1e-15)


def test_ratio_estimate_tie_breaks_to_smallest_index():
    r_hat, ratios = ratio_estimate([10.0, 5.0, 2.5], 2)
    assert r_hat == 1
    assert_allclose(ratios, [0.5, 0.5], atol=1e-15)


def test_ratio_estimate_default_span():
    assert default_ratio_span(10, 100) == 5
    assert default_ratio_span(2, 100) == 1
    assert default_ratio_span(3, 100) == 1
    lam = [8.0, 4.0, 2.0, 0.002, 0.0019]
    r_hat, ratios = ratio_estimate(lam, default_ratio_span(5, 100))
    assert (r_hat, ratios.size) == (1, 2)
    assert np.array_equal(ratios, ratio_estimate(lam, 2)[1])


@pytest.mark.parametrize("eigenvalues", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0],
                                         [1.0, 0.5, np.nan]])
def test_ratio_estimate_rejects_a_non_finite_spectrum(eigenvalues):
    with pytest.raises(DomainError, match="spectrum has a non-finite eigenvalue"):
        ratio_estimate(eigenvalues, 1)


def test_ratio_estimate_excludes_numerically_zero_eigenvalues():
    r_hat, ratios = ratio_estimate([4.0, 2.0, 1e-20, 1e-26], 3)
    assert r_hat == 2
    assert np.isnan(ratios[2])


def test_ratio_estimate_scale_invariance():
    lam = [9.0, 3.0, 0.5, 0.1, 0.02]
    for c in (1e-6, 1.0, 3.7e8):
        r_hat, ratios = ratio_estimate([c * v for v in lam], 4)
        base_r, base_ratios = ratio_estimate(lam, 4)
        assert r_hat == base_r
        assert_allclose(ratios, base_ratios, rtol=1e-12)


def test_ratio_estimate_degenerate_spectrum():
    with pytest.raises(DomainError):
        ratio_estimate([0.0, 0.0, 0.0], 2)


def test_ratio_estimate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        ratio_estimate([1.0, 2.0, 3.0], 2)  # ascending
    with pytest.raises(DomainError):
        ratio_estimate([1.0, -0.5], 1)  # significantly negative
    with pytest.raises(DomainError):
        ratio_estimate([3.0, 2.0, 1.0], 3)  # span beyond p-1


# ---------------------------------------------------------------- one-step fit

def test_estimate_single_strong_factor_seeded():
    panel, _ = generate(s1_scenario(200, 100, seed=5))
    model = estimate(panel, k0=1)
    assert model.r_hat == 1


def test_estimate_recovers_noiseless_direction():
    direction = np.array([3.0, -1.0, 2.0, 0.5, -2.0])
    panel = ar1_panel(300, 5, noise=0.0, seed=51, loadings=direction)
    model = estimate(panel, k0=1)
    assert model.r_hat == 1
    unit = direction / np.linalg.norm(direction)
    cosine = abs(float(model.loadings[:, 0] @ unit))
    assert cosine >= 1 - 1e-8


def test_estimate_table1_cell_smoke():
    # The 200-replication check lives in the acceptance suite; with the cell
    # frequency measured at 0.996, a 40-replication run clears 0.9 with
    # failure probability below 1e-4.
    hits = 0
    for rep in range(40):
        panel, _ = generate(table1_scenario(400, 80, seed=1000 + rep))
        hits += estimate(panel, k0=1).r_hat == 3
    assert hits / 40 >= 0.9


def test_estimate_tiny_panel_invariants():
    panel = Panel(np.random.default_rng(52).standard_normal((2, 10)))
    model = estimate(panel, k0=1)
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    assert np.abs(model.loadings.T @ model.loadings - np.eye(model.r_hat)).max() <= 1e-10
    assert np.abs(model.loadings @ model.factors + model.residuals - centered).max() <= 1e-10
    assert_allclose(model.factors, model.loadings.T @ centered, atol=1e-12)


def test_estimate_univariate_panel():
    panel = Panel(np.random.default_rng(53).standard_normal((1, 30)))
    model = estimate(panel, k0=2)
    assert model.r_hat == 1
    assert model.ratios.size == 0
    assert_allclose(model.loadings, [[1.0]])
    assert_allclose(model.residuals, np.zeros((1, 30)), atol=1e-14)
    # The univariate fit honors window centering like any other.
    windowed = estimate(panel, k0=2, window_centering=True)
    expected = m_eigenvalues(panel, 2, window_centering=True)
    assert np.array_equal(windowed.eigenvalues, expected)
    assert windowed.eigenvalues[0] != model.eigenvalues[0]


@pytest.mark.parametrize("p, n, levels", [
    pytest.param(1, 30, (0.5, 3.0), id="1-30"),
    pytest.param(6, 100, (0.5, 3.0), id="6-100"),
    pytest.param(300, 50, (0.5, 3.0), id="300-50"),
    pytest.param(1, 100, (0.1,), id="1-100-inexact"),
    pytest.param(6, 100, (0.1,), id="6-100-inexact"),
    pytest.param(300, 50, (0.1,), id="300-50-inexact"),
])
def test_a_panel_of_constant_series_has_no_fit(p, n, levels):
    # Rows alternate through ``levels``.  The mean of a row of 0.5 or 3.0 is
    # exact, so its centred values are zero; that of a row of 0.1 rounds, so
    # they keep roundoff.  A wide panel's span coordinates are centred on
    # their own and keep roundoff too, so its pooled spectrum alone would
    # not reject it.
    values = np.repeat(np.resize(levels, p)[:, None], n, axis=1)
    # The spectrum alone shares the fits' front end and its check.
    for fit in [estimate, m_eigenvalues] + ([] if p == 1 else [two_step_estimate]):
        with pytest.raises(DomainError,
                           match="^degenerate spectrum: the panel has zero variance$"):
            fit(Panel(values), k0=2, window_centering=True)


def test_estimate_default_lag_depth_is_five():
    panel = ar1_panel(100, 4, seed=54)
    assert estimate(panel).k0 == 5


def test_fast_spectrum_matches_full_decomposition():
    panel = ar1_panel(150, 8, seed=55)
    fast = m_eigenvalues(panel, 3)
    full, _ = sym_eigen(build_m(panel, 3))
    assert_allclose(fast, full, atol=1e-10 * max(full[0], 1.0))
    # The studies count from the eigvalsh spectrum, the fits from eigh's:
    # on Table-1-shaped panels the two differ only by roundoff.
    for delta in (0.0, 0.5):
        for n in (100, 200, 400):
            for rule in (0.2, 0.5, 1.5):
                p = int(round(rule * n))
                panel, _ = generate(table1_scenario(n, p, delta, seed=n + p))
                fast = m_eigenvalues(panel, 1)
                model = estimate(panel, k0=1)
                assert np.abs(fast - model.eigenvalues).max() <= 1e-12 * model.eigenvalues[0]
                assert ratio_estimate(fast, default_ratio_span(p, n))[0] == model.r_hat


# ---------------------------------------------------------------- pooled kernel

def kernel_cases(shapes):
    return [(n, p, k0, wc) for n, p in shapes for k0 in (1, 5) for wc in (False, True)]


@pytest.mark.parametrize("n, p, k0, wc", kernel_cases([(30, 80), (50, 120)]))
def test_estimate_wide_panel_matches_dense_reference(n, p, k0, wc):
    panel, _ = generate(table1_scenario(n, p, seed=n + p + k0))
    model = estimate(panel, k0, window_centering=wc)
    eigenvalues, eigenvectors, r_hat, ratios = dense_reference(panel, k0, wc)
    lam1 = eigenvalues[0]
    assert np.abs(model.eigenvalues - eigenvalues).max() <= 1e-12 * lam1
    assert np.all(model.eigenvalues[n:] == 0.0)
    assert model.eigenvectors.shape == (p, n)
    assert model.r_hat == r_hat
    assert np.array_equal(np.isnan(model.ratios), np.isnan(ratios))
    # Sine of the largest principal angle between the two loading spans.
    dense_span = eigenvectors[:, :r_hat]
    gap = dense_span - model.loadings @ (model.loadings.T @ dense_span)
    assert np.linalg.norm(gap, 2) < 1e-8
    fast = m_eigenvalues(panel, k0, window_centering=wc)
    assert np.abs(fast - eigenvalues).max() <= 1e-12 * lam1


@pytest.mark.parametrize("n, p, k0, wc", kernel_cases([(80, 30), (40, 40)]))
def test_estimate_narrow_panel_is_bit_identical_to_dense_reference(n, p, k0, wc):
    panel, _ = generate(table1_scenario(n, p, seed=n + p + k0))
    model = estimate(panel, k0, window_centering=wc)
    eigenvalues, eigenvectors, r_hat, _ = dense_reference(panel, k0, wc)
    assert np.array_equal(model.eigenvalues, eigenvalues)
    assert np.array_equal(model.eigenvectors, eigenvectors)
    assert np.array_equal(model.loadings, eigenvectors[:, :r_hat])
    pooled = build_m(panel, k0, window_centering=wc)
    fast = m_eigenvalues(panel, k0, window_centering=wc)
    assert np.array_equal(fast, np.linalg.eigvalsh(pooled)[::-1])


@pytest.mark.parametrize("n, p", [(50, 80), (200, 300), (40, 41), (200, 2000)])
def test_wide_spectrum_is_bit_identical_to_the_full_qr_one(n, p):
    # m_eigenvalues takes R alone from the QR; the fits form Q and R.  R keeps its bits.
    panel, _ = generate(table1_scenario(n, p, seed=n + p))
    _, r = np.linalg.qr(panel.values)
    for k0, wc in ((1, False), (3, True)):
        expected = estimation._pooled_eigen(r, p, k0, wc, False)[0]
        assert np.array_equal(m_eigenvalues(panel, k0, window_centering=wc), expected)

@pytest.mark.parametrize("n, p, k0, wc, r1", [
    case + (r1,) for case in kernel_cases([(30, 80), (50, 120)]) for r1 in (1, 2, 3)
])
def test_two_step_wide_panel_second_pass_matches_dense_reference(n, p, k0, wc, r1):
    # The fit deflates the first pass's span coordinates; the reference
    # deflates the p x n panel itself and decomposes the dense matrix.
    panel, _ = generate(table1_scenario(n, p, seed=n + p + k0))
    assert_second_pass_matches_dense_reference(panel, k0, wc, r1)


@pytest.mark.parametrize("n, p", [(60, 8), (30, 80)])
def test_overflowing_panel_gives_the_unit_scale_counts(n, p):
    # At 1e80 the pooled matrix would overflow; the fits rescale the panel by
    # a power of two and report eigenvalues past double range as inf.
    panel, _ = generate(table1_scenario(n, p, seed=57))
    huge = Panel(panel.values * 1e80)
    one, two = estimate(panel, k0=1), two_step_estimate(panel, k0=1)
    huge_one, huge_two = estimate(huge, k0=1), two_step_estimate(huge, k0=1)
    assert huge_one.r_hat == one.r_hat
    assert (huge_two.r1_hat, huge_two.r2_hat) == (two.r1_hat, two.r2_hat)
    assert np.isposinf(huge_one.eigenvalues[0])
    assert_allclose(huge_one.factors, one.factors * 1e80, rtol=1e-10, atol=1e-10 * 1e80)
    span = default_ratio_span(p, n)
    assert ratio_estimate(m_eigenvalues(huge, 1), span)[0] == \
        ratio_estimate(m_eigenvalues(panel, 1), span)[0]


@pytest.mark.parametrize("fit", [estimate, two_step_estimate])
@pytest.mark.parametrize("n, p", [(120, 30), (40, 90)])
@pytest.mark.parametrize("k", [0, 100])
def test_factors_and_residuals_are_formed_from_the_unit_panel_on_first_read(fit, n, p, k):
    panel, _ = generate(table1_scenario(n, p, seed=n + p))
    model = fit(Panel(np.ldexp(panel.values, k)), k0=1)
    values, e = estimation._unit_scale(np.ldexp(panel.values, k))
    assert model._exponent == e and (e == 0) == (k == 0)
    assert np.array_equal(model._centered, values - values.mean(axis=1, keepdims=True))
    # A fit forms none of them; studies never read them.
    assert not {"eigenvectors", "factors", "residuals"} & vars(model).keys()
    assert np.array_equal(model.eigenvectors,
                          estimation._in_panel(model._basis, model._vectors))
    assert model.eigenvectors is model.eigenvectors
    if fit is two_step_estimate:
        first = estimate(Panel(np.ldexp(panel.values, k)), k0=1)
        assert np.array_equal(model.eigenvectors, first.eigenvectors)
    unit = model.loadings.T @ model._centered
    assert np.array_equal(model.factors, estimation._in_units(unit, e))
    assert np.array_equal(model.residuals,
                          estimation._in_units(model._centered - model.loadings @ unit, e))
    assert model.factors is model.factors
    assert model.residuals is model.residuals


# ---------------------------------------------------------------- two-step fit

def test_two_step_override_gives_orthonormal_loadings():
    panel, _ = generate(table1_scenario(300, 30, seed=61))
    model = two_step_estimate(panel, k0=1, r1_override=2)
    assert model.method == "two-step"
    assert model.r1_hat == 2
    assert model.r_hat == 2 + model.r2_hat
    gram = model.loadings.T @ model.loadings
    assert np.abs(gram - np.eye(model.r_hat)).max() <= 1e-8


def test_two_step_residual_identity():
    panel, _ = generate(table1_scenario(300, 20, seed=62))
    model = two_step_estimate(panel, k0=1)
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    assert np.abs(model.loadings @ model.factors + model.residuals - centered).max() <= 1e-10


def test_two_step_flags_flat_second_pass_on_single_factor_data():
    # Pilot fixture: across 100 replications of this design the second pass
    # never showed a sharp minimum; require at least 18 of 20 here.
    flagged = 0
    for rep in range(20):
        panel, _ = generate(s1_scenario(400, 200, seed=7000 + rep))
        model = two_step_estimate(panel, k0=1)
        flagged += bool(model.step2_no_sharp_minimum)
    assert flagged >= 18


def test_two_step_separates_mixed_strength_factors():
    # Two strong factors and one weak: the first pass stops at the strong
    # pair and the deflated pass recovers the weak one (seeded panel from
    # the regime where this happens in essentially every replication).
    panel, _ = generate(s3_scenario(800, 400, seed=65))
    model = two_step_estimate(panel, k0=1)
    assert (model.r1_hat, model.r2_hat, model.r_hat) == (2, 1, 3)
    assert model.step2_no_sharp_minimum is False


def test_two_step_rejects_bad_override():
    panel, _ = generate(table1_scenario(100, 10, seed=63))
    with pytest.raises(DomainError):
        two_step_estimate(panel, k0=1, r1_override=0)
    with pytest.raises(DomainError):
        two_step_estimate(panel, k0=1, r1_override=10)
    # A wide fit holds only min(p, n) = 50 eigenvectors to deflate.
    wide, _ = generate(table1_scenario(50, 120, seed=63))
    for r1 in (51, 60):
        with pytest.raises(DomainError, match="min\\(p-1, n\\)"):
            two_step_estimate(wide, k0=1, r1_override=r1)


def assert_empty_second_pass(model, r1, p):
    assert (model.r1_hat, model.r2_hat, model.r_hat) == (r1, 0, r1)
    assert model.eigenvalues_step2[0] <= 1e-12 * model.eigenvalues[0]
    assert model.ratios_step2.shape == (model.ratio_span,)
    assert np.isnan(model.ratios_step2).all()
    assert model.step2_no_sharp_minimum is True
    assert model.loadings.shape == (p, r1)


def test_two_step_full_rank_deflation_finds_no_second_pass_factors():
    # The centred 50 x 120 panel has rank 49: deflating 49 directions
    # leaves roundoff (about 1e-53 of the first pass's top eigenvalue).
    panel, _ = generate(table1_scenario(50, 120, seed=66))
    assert_empty_second_pass(two_step_estimate(panel, k0=1, r1_override=49), 49, 120)


@pytest.mark.parametrize("k0", [1, 3])
def test_two_step_noiseless_rank_two_panel_finds_no_second_pass_factors(k0):
    scn = replace(table1_scenario(200, 20, seed=67), r=2, deltas=(0.0, 0.0),
                  ar_coeffs=(0.6, -0.5), noise_var=0.0)
    panel, _ = generate(scn)
    assert_empty_second_pass(two_step_estimate(panel, k0=k0, r1_override=2), 2, 20)


def test_two_step_univariate_is_degenerate():
    panel = Panel(np.random.default_rng(64).standard_normal((1, 30)))
    with pytest.raises(DomainError):
        two_step_estimate(panel, k0=1)


# ---------------------------------------------------------------- population oracle

def test_population_m_rank_one_closed_form():
    p, theta = 6, 0.7
    m, lam = population_m(np.ones((p, 1)), [theta], 1)
    c = p * (theta / (1 - theta**2)) ** 2
    assert_allclose(m, c * np.ones((p, p)), rtol=1e-12)
    assert_allclose(lam[0], p * c, rtol=1e-12)
    assert np.abs(lam[1:]).max() <= 1e-10 * lam[0]
    # A vector of loadings is one factor's column.
    vector_m, vector_lam = population_m(np.ones(p), [theta], 1)
    assert np.array_equal(vector_m, m) and np.array_equal(vector_lam, lam)


def test_population_m_white_noise_factor_vanishes():
    m, lam = population_m(np.ones((4, 1)), [0.0], 3)
    assert_allclose(m, np.zeros((4, 4)), atol=1e-15)


def test_population_m_rank_bound():
    rng = np.random.default_rng(71)
    loadings = rng.uniform(-1, 1, size=(12, 3))
    _, lam = population_m(loadings, [0.6, -0.5, 0.3], 1)
    assert np.abs(lam[3:]).max() <= 1e-10 * lam[0]


def test_population_m_rejects_nonstationary():
    for theta in (1.0, np.nan):
        with pytest.raises(DomainError, match="strictly inside"):
            population_m(np.ones((3, 1)), [theta], 1)


def test_population_m_kills_orthogonal_complement():
    rng = np.random.default_rng(72)
    loadings = rng.uniform(-1, 1, size=(6, 2))
    q, _ = np.linalg.qr(np.hstack([loadings, rng.standard_normal((6, 4))]))
    complement = q[:, 2:]
    m, _ = population_m(loadings, [0.6, -0.4], 2)
    assert np.abs(m @ complement).max() <= 1e-10


# ---------------------------------------------------------------- invariances

def test_spectrum_invariant_under_loading_rotation_same_randomness():
    scn = table1_scenario(200, 16, seed=81)
    panel, truth = generate(scn)
    rotation = random_orthogonal(3, seed=82)
    rotated = Panel((truth.loadings @ rotation) @ (rotation.T @ truth.factors) + truth.noise)
    lam_a = m_eigenvalues(panel, 1)
    lam_b = m_eigenvalues(rotated, 1)
    assert np.abs(lam_a - lam_b).max() <= 1e-10 * lam_a[0]


def test_spectrum_invariant_under_rotation_noiseless_orthonormal():
    rng = np.random.default_rng(83)
    q, _ = np.linalg.qr(rng.standard_normal((12, 3)))
    scn = table1_scenario(300, 12, seed=84)
    _, truth = generate(scn)
    rotation = random_orthogonal(3, seed=85)
    lam_a = m_eigenvalues(Panel(q @ truth.factors), 1)
    lam_b = m_eigenvalues(Panel((q @ rotation) @ truth.factors), 1)
    assert np.abs(lam_a - lam_b).max() <= 1e-10 * lam_a[0]
    assert estimate(Panel(q @ truth.factors), k0=1).r_hat == estimate(
        Panel((q @ rotation) @ truth.factors), k0=1
    ).r_hat


def test_scale_equivariance_fourth_power():
    panel = ar1_panel(120, 6, seed=86)
    c = 3.7
    lam = m_eigenvalues(panel, 2)
    lam_scaled = m_eigenvalues(Panel(c * panel.values), 2)
    assert_allclose(lam_scaled, c**4 * lam, rtol=1e-8)
    base = estimate(panel, k0=2)
    scaled = estimate(Panel(c * panel.values), k0=2)
    assert base.r_hat == scaled.r_hat
    assert_allclose(scaled.ratios, base.ratios, rtol=1e-8, equal_nan=True)


# ---------------------------------------------------------------- concurrent eigensolves

def test_concurrent_eigensolves_equal_their_serial_results():
    # More threads than cores and a tiny switch interval: every solve must
    # keep its bits.
    rng = np.random.default_rng(91)
    jobs = []
    for size in (8, 24, 40, 64, 100, 150):
        x = rng.standard_normal((size, size + 5))
        jobs.append((x @ x.T) / size)
    serial = [sym_eigen(m) for m in jobs]
    mismatches, errors = [], []

    def solve(index):
        try:
            for _ in range(30):
                pair = sym_eigen(jobs[index])
                if any(a.tobytes() != b.tobytes() for a, b in zip(pair, serial[index])):
                    mismatches.append(index)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not mismatches


# ---------------------------------------------------------------- input checks

_WIDE8 = ar1_panel(100, 8, seed=58)
_N30 = Panel(np.arange(150.0).reshape(5, 30) % 7)
# Each integer input, as (id, call on a value, label, range in the message).
_INTEGER_INPUTS = [
    ("population-k0", lambda v: population_m(np.ones((4, 1)), [0.5], v), "k0", "[1, inf)"),
    ("build-m-k0", lambda v: build_m(_N30, v), "k0", "[1, n-2] = [1, 28]"),
    ("m-eigenvalues-k0", lambda v: m_eigenvalues(_N30, v), "k0", "[1, n-2] = [1, 28]"),
    ("estimate-k0", lambda v: estimate(_N30, v), "k0", "[1, n-2] = [1, 28]"),
    ("autocov-lag", lambda v: sample_autocov(_N30, v), "lag k", "[0, n-2] = [0, 28]"),
    ("ratio-span", lambda v: ratio_estimate([8.0, 4.0, 2.0, 1.0, 0.5, 0.25], v), "ratio span",
     "[1, p-1] = [1, 5]"),
    ("estimate-span", lambda v: estimate(_WIDE8, 1, v), "ratio span", "[1, p-1] = [1, 7]"),
    ("two-step-r1", lambda v: two_step_estimate(_WIDE8, 1, None, v), "first-pass factor count",
     "[1, min(p-1, n)] = [1, 7]"),
]


@pytest.mark.parametrize("call, args, error, message", [
    (sym_eigen, (np.ones((2, 3)),), DimensionError,
     r"^expected a square matrix, got shape \(2, 3\)$"),
    (ratio_estimate, ([1.0], 1), DimensionError,
     "^ratio estimation needs at least two eigenvalues$"),
    (population_m, (np.ones((4, 2)), [0.5], 1), DimensionError,
     "^need one AR coefficient per factor, got 1 for 2 factors$"),
    (population_m, (np.ones((4, 1)), [0.5], 0), DomainError,
     r"^k0 must be an integer in \[1, inf\), got 0$"),
    # A fractional span or first-pass count is refused, not truncated.
    (ratio_estimate, ([8.0, 4.0, 2.0, 1.0, 0.5, 0.25], 2.5), DomainError,
     r"^ratio span must be an integer in \[1, p-1\] = \[1, 5\], got 2.5$"),
    (estimate, (ar1_panel(100, 8, seed=58), 1, 3.7), DomainError,
     r"^ratio span must be an integer in \[1, p-1\] = \[1, 7\], got 3.7$"),
    (two_step_estimate, (ar1_panel(100, 8, seed=58), 1, None, 1.9), DomainError,
     r"^first-pass factor count must be an integer in \[1, min\(p-1, n\)\] = \[1, 7\], "
     r"got 1.9$"),
    # A univariate panel has no span to search, so a given one is refused.
    (estimate, (Panel(np.random.default_rng(5).standard_normal((1, 50))), 1, 99), DomainError,
     r"^ratio span must be an integer in \[1, p-1\] = \[1, 0\], got 99$"),
] + [
    # The spectrum-only path checks k0 as a fit does; the panel has n = 30.
    (fit, (_N30, k0), DomainError,
     rf"^k0 must be an integer in \[1, n-2\] = \[1, 28\], got {k0}$")
    for k0 in (0, 29, 30) for fit in (m_eigenvalues, estimate)
] + [
    (call, (value,), DomainError, f"^{re.escape(integer_message(label, span, value))}$")
    for _, call, label, span in _INTEGER_INPUTS for value in NON_INTEGERS.values()
], ids=["sym-eigen-non-square", "ratio-one-eigenvalue", "population-ar-count", "population-k0",
         "ratio-fractional-span", "estimate-fractional-span", "two-step-fractional-r1",
         "univariate-span"]
    + [f"{fit}-k0-{k0}" for k0 in ("0", "n-1", "n") for fit in ("m-eigenvalues", "estimate")]
    + [f"{name}-{kind}" for name, _, _, _ in _INTEGER_INPUTS for kind in NON_INTEGERS])
def test_estimation_rejects_malformed_input(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)
