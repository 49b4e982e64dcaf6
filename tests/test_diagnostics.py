import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hdfactor import (
    DimensionError,
    DomainError,
    Panel,
    cross_acf,
    estimate,
    generate,
    projection_residual_ratio,
    residual_projection_acf,
    two_step_estimate,
    variance_explained,
)
from helpers import NON_INTEGERS, integer_message, random_orthogonal, table1_scenario


def ar1_series(n, theta, seed):
    rng = np.random.default_rng(seed)
    level, path = 0.0, []
    for shock in rng.standard_normal(n + 200).tolist():
        level = shock + theta * level
        path.append(level)
    return np.array(path[200:])


# ------------------------------------------------------------------- cross_acf

def test_cross_acf_identical_series_lag_zero():
    x = np.random.default_rng(1).standard_normal(50)
    report = cross_acf(np.vstack([x, x]), 5)
    assert_allclose(report.acf[0, 1, 0], 1.0, atol=1e-12)
    assert_allclose(report.acf[0, 0, 0], 1.0, atol=1e-12)


def test_cross_acf_ar1_lag_one_near_population_value():
    series = ar1_series(2000, 0.7, seed=2)
    report = cross_acf(series, 3)
    assert abs(report.acf[0, 0, 1] - 0.7) < 0.05


def test_cross_acf_iid_band_exceedances_are_rare():
    # Pointwise 5% band: with 20 lags the exceedance fraction stays well
    # below 0.15 for this seeded draw.
    series = np.random.default_rng(3).standard_normal(1000)
    report = cross_acf(series, 20)
    fraction = np.mean(np.abs(report.acf[0, 0, 1:]) > report.band)
    assert fraction <= 0.15
    assert_allclose(report.band, 1.96 / np.sqrt(1000), atol=1e-12)


def test_cross_acf_values_bounded_by_one():
    rng = np.random.default_rng(4)
    report = cross_acf(rng.standard_normal((4, 60)) * 12, 10)
    assert np.abs(report.acf).max() <= 1 + 1e-10


def test_cross_acf_relabeling_symmetry():
    rng = np.random.default_rng(5)
    pair = rng.standard_normal((2, 80))
    forward = cross_acf(pair, 6)
    swapped = cross_acf(pair[::-1], 6)
    assert_allclose(forward.acf[0, 1], swapped.acf[1, 0], atol=1e-13)
    assert_allclose(forward.acf[1, 0], swapped.acf[0, 1], atol=1e-13)


def test_cross_acf_of_series_near_the_largest_double_matches_the_unit_series():
    # The spread of these series, max - min, overflows unless taken at unit scale.
    x = np.random.default_rng(6).standard_normal((2, 40))
    huge = x * (1.7e308 / np.abs(x).max())
    assert_allclose(cross_acf(huge, 4).acf, cross_acf(x, 4).acf, rtol=1e-12, atol=1e-14)


def test_cross_acf_rejects_constant_series():
    block = np.vstack([np.ones(30) * 0.1, np.random.default_rng(6).standard_normal(30)])
    with pytest.raises(DomainError, match="'1'"):
        cross_acf(block, 4)


def test_cross_acf_rejects_bad_lag():
    series = np.random.default_rng(7).standard_normal(20)
    with pytest.raises(DomainError):
        cross_acf(series, 0)
    with pytest.raises(DomainError):
        cross_acf(series, 19)


# ------------------------------------------------- residual projection whiteness

def test_residual_projection_acf_is_white_for_fitted_model():
    panel, _ = generate(table1_scenario(1600, 80, seed=8))
    model = estimate(panel, k0=1)
    assert model.r_hat == 3
    report = residual_projection_acf(model, (4, 5), 20)
    beyond_lag0 = np.abs(report.acf[:, :, 1:])
    fraction = np.mean(beyond_lag0 > report.band)
    assert fraction <= 0.15


def test_residual_projection_rejects_factor_direction():
    panel, _ = generate(table1_scenario(400, 20, seed=9))
    model = estimate(panel, k0=1)
    with pytest.raises(DomainError):
        residual_projection_acf(model, (1,), 10)
    with pytest.raises(DomainError):
        residual_projection_acf(model, (21,), 10)


@pytest.mark.parametrize("directions, repeated", [((4, 4), 4), ((5, 4, 6, 4), 4), ((4, 5, 5), 5),
                                                   ((1, 5, 5), 5)])
def test_residual_projection_rejects_a_repeated_direction(directions, repeated):
    # A repeated direction would be reported, and written, once per copy.  The
    # repeat check comes first: (1, 5, 5) names the repeat, not factor direction 1.
    panel, _ = generate(table1_scenario(400, 20, seed=9))
    model = estimate(panel, k0=1)
    assert model.r_hat < 4
    with pytest.raises(DomainError, match=f"^directions repeat direction {repeated}$"):
        residual_projection_acf(model, directions, 10)


def test_residual_projection_zero_variance_on_noiseless_panel():
    scn = replace(table1_scenario(300, 10, seed=10), noise_var=0.0)
    panel, _ = generate(scn)
    model = estimate(panel, k0=1)
    assert model.r_hat == 3
    with pytest.raises(DomainError, match="zero variance"):
        residual_projection_acf(model, (5,), 10)


# ---------------------------------------------------------------- variance shares

def test_variance_explained_univariate_is_one():
    panel = Panel(np.random.default_rng(11).standard_normal((1, 40)))
    model = estimate(panel, k0=1)
    assert_allclose(variance_explained(model), [1.0], atol=1e-12)


def test_variance_explained_noiseless_rank_one_is_one():
    rng = np.random.default_rng(12)
    x = ar1_series(300, 0.7, seed=12)
    panel = Panel(np.outer(rng.uniform(-1, 1, 5), x))
    model = estimate(panel, k0=1)
    shares = variance_explained(model)
    assert model.r_hat == 1
    assert_allclose(shares[0], 1.0, atol=1e-8)


def test_variance_explained_sum_invariant_under_basis_rotation():
    panel, _ = generate(table1_scenario(300, 12, seed=13))
    rotation = random_orthogonal(12, seed=14)
    rotated = Panel(rotation @ panel.values)
    total = variance_explained(estimate(panel, k0=1)).sum()
    total_rot = variance_explained(estimate(rotated, k0=1)).sum()
    assert abs(total - total_rot) <= 1e-10


def test_variance_explained_fractions_are_proper():
    panel, _ = generate(table1_scenario(250, 15, seed=15))
    model = estimate(panel, k0=1)
    shares = variance_explained(model)
    assert np.all(shares >= 0)
    assert np.all(shares <= 1 + 1e-10)
    assert shares.sum() <= 1 + 1e-10


def test_variance_explained_two_step_uses_combined_columns():
    panel, _ = generate(table1_scenario(400, 20, seed=22))
    model = two_step_estimate(panel, k0=1, r1_override=2)
    shares = variance_explained(model)
    assert shares.shape == (model.r_hat,)
    assert shares.sum() <= 1 + 1e-10


@pytest.mark.parametrize("scale", [1e80, 1e160, 1e-170])
def test_diagnostics_past_the_square_range_match_the_unit_panel(scale):
    # Squares of these values, or fourth powers at 1e80 (the eigenvalues),
    # overflow or underflow; the diagnostics must not.
    panel, _ = generate(table1_scenario(200, 10, seed=10))
    base = estimate(panel, k0=1)
    scaled = estimate(Panel(panel.values * scale), k0=1)
    assert scaled.r_hat == base.r_hat
    assert_allclose(variance_explained(scaled), variance_explained(base), rtol=1e-12)
    assert_allclose(cross_acf(scaled.factors, 5).acf, cross_acf(base.factors, 5).acf,
                    rtol=1e-12, atol=1e-14)
    assert_allclose(residual_projection_acf(scaled, (3, 4), 5).acf,
                    residual_projection_acf(base, (3, 4), 5).acf, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------- projection ratio

def test_projection_ratio_of_factor_row_is_zero():
    factors = np.random.default_rng(17).standard_normal((3, 60))
    assert projection_residual_ratio(factors[0], factors) <= 1e-10


def test_projection_ratio_of_orthogonal_series_is_one():
    rng = np.random.default_rng(18)
    factors = rng.standard_normal((2, 50))
    q, _ = np.linalg.qr(factors.T)
    u = rng.standard_normal(50)
    u -= q @ (q.T @ u)
    assert abs(projection_residual_ratio(u, factors) - 1.0) <= 1e-10


def test_projection_ratio_constructed_mixture():
    rng = np.random.default_rng(19)
    factors = rng.standard_normal((2, 80))
    q, _ = np.linalg.qr(factors.T)
    inside = q @ rng.standard_normal(2)
    inside /= np.linalg.norm(inside)
    outside = rng.standard_normal(80)
    outside -= q @ (q.T @ outside)
    outside /= np.linalg.norm(outside)
    u = 3.0 * inside + 1.0 * outside  # orthogonal parts: ratio = 1 / (9 + 1)
    assert abs(projection_residual_ratio(u, factors) - 0.1) <= 1e-10


def test_projection_ratio_invariant_under_row_remixing():
    rng = np.random.default_rng(20)
    factors = rng.standard_normal((3, 70))
    u = rng.standard_normal(70)
    mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    first = projection_residual_ratio(u, factors)
    second = projection_residual_ratio(u, mix @ factors)
    assert abs(first - second) <= 1e-10


def test_projection_ratio_rejects_degenerate_inputs():
    factors = np.random.default_rng(21).standard_normal((2, 30))
    with pytest.raises(DomainError):
        projection_residual_ratio(np.zeros(30), factors)
    rank_deficient = np.vstack([factors[0], 2 * factors[0]])
    with pytest.raises(DomainError):
        projection_residual_ratio(np.ones(30), rank_deficient)


_SERIES = np.random.default_rng(22).standard_normal((2, 30))


@pytest.mark.parametrize("call, args, kwargs, message", [
    (cross_acf, (np.zeros((2, 3, 4)), 1), {}, "^series must be 1-D or 2-D, got 3-D$"),
    (cross_acf, (np.ones((2, 2)), 1), {}, "^need at least one series of length 3, got 2 x 2$"),
    (cross_acf, (_SERIES, 3), {"series_ids": ["a"]}, "^got 1 ids for 2 series$"),
    (projection_residual_ratio, (np.ones(29), _SERIES), {},
     "^series length 29 does not match factor length 30$"),
], ids=["acf-3d", "acf-short", "acf-ids", "projection-length"])
def test_diagnostics_reject_mismatched_shapes(call, args, kwargs, message):
    with pytest.raises(DimensionError, match=message):
        call(*args, **kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: cross_acf([1, np.inf, 2, 3, 4], 1), "series '1' contains a non-finite value at time 2"),
    (lambda: projection_residual_ratio([1, 2, np.nan], [[1, 2, 3]]),
     "series contains a non-finite value at time 3"),
    (lambda: projection_residual_ratio([1, 2, 3], [[1, 2, np.inf]]),
     "factor series 1 contains a non-finite value at time 3"),
], ids=["acf", "projection-series", "projection-factors"])
def test_diagnostics_reject_a_non_finite_input(call, message):
    # Panel and ratio_estimate refuse NaN and inf too; these returned NaN.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("value", NON_INTEGERS.values(), ids=NON_INTEGERS.keys())
@pytest.mark.parametrize("call, label, span", [
    (lambda v: cross_acf(_SERIES, v), "max_lag", "[1, n-2] = [1, 28]"),
    (lambda v: residual_projection_acf(estimate(Panel(_SERIES), 1), [v], 5), "direction",
     "[1, inf)"),
], ids=["acf-max-lag", "residual-direction"])
def test_diagnostics_reject_a_non_integer_input(call, label, span, value):
    with pytest.raises(DomainError) as raised:
        call(value)
    assert str(raised.value) == integer_message(label, span, value)
