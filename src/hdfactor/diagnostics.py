"""Post-estimation checks: cross-autocorrelations, residual-direction
whiteness, variance shares, and projection of an external series onto the
estimated factor space.

The residual check rests on the defining property of the model: any
direction orthogonal to the loading space carries pure white noise, so
its sample autocorrelations should stay inside the +/-1.96/sqrt(n) band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, _distinct, _integer_in
from .estimation import RATIO_FLOOR, FactorModel, _lag_covs, _unit_scale

__all__ = [
    "AcfReport",
    "cross_acf",
    "residual_projection_acf",
    "variance_explained",
    "projection_residual_ratio",
]


@dataclass(frozen=True)
class AcfReport:
    """Sample cross-autocorrelations for every ordered series pair.

    ``acf[i, j, k]`` correlates series i led by k steps with series j,
    for lags k = 0..max_lag.  ``band`` is the pointwise white-noise band
    1.96/sqrt(n) drawn in autocorrelation plots.
    """

    series_ids: tuple
    max_lag: int
    acf: np.ndarray
    band: float


def _check_finite(x: np.ndarray, names) -> None:
    """Refuse NaN or inf in 2-D ``x``, naming the first one's row (by ``names``) and time."""
    if not np.isfinite(x).all():
        i, t = np.argwhere(~np.isfinite(x))[0]
        raise DomainError(f"{names[i]} contains a non-finite value at time {t + 1}")


def cross_acf(series, max_lag: int, series_ids: Optional[Sequence[str]] = None) -> AcfReport:
    """Sample cross-correlations at lags 0..max_lag for all ordered pairs.

    Each series is centered by its own mean; the normalization uses the
    full-sample standard deviations (divisor n), which bounds every value
    by one in magnitude.  The correlations do not depend on scale, so
    series outside [2^-64, 2^64] are first rescaled as the fits rescale
    them (``estimation._unit_scale``).

    Raises
    ------
    DomainError
        If a series holds NaN or inf, or is constant (zero variance), naming it.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise DimensionError(f"series must be 1-D or 2-D, got {x.ndim}-D")
    m, n = x.shape
    if m < 1 or n < 3:
        raise DimensionError(f"need at least one series of length 3, got {m} x {n}")
    max_lag = _integer_in("max_lag", max_lag, 1, n - 2, "n-2")
    if series_ids is None:
        series_ids = tuple(str(i + 1) for i in range(m))
    else:
        series_ids = tuple(str(s) for s in series_ids)
        if len(series_ids) != m:
            raise DimensionError(f"got {len(series_ids)} ids for {m} series")

    _check_finite(x, [f"series {s!r}" for s in series_ids])
    x = _unit_scale(x)[0]
    spread = x.max(axis=1) - x.min(axis=1)
    for i, s in enumerate(spread):
        if s == 0.0:
            raise DomainError(f"series {series_ids[i]!r} is constant; autocorrelation is undefined")
    # The scale stays a mean of squares: the lag-0 diagonal holds the same sums
    # added in BLAS order, which differs in the last bits.
    centered = x - x.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered**2).mean(axis=1))

    denom = np.outer(scale, scale)
    acf = np.stack([cov / denom for cov in _lag_covs(x, range(max_lag + 1), False)], axis=2)
    return AcfReport(
        series_ids=series_ids,
        max_lag=max_lag,
        acf=acf,
        band=1.96 / np.sqrt(n),
    )


def residual_projection_acf(model: FactorModel, directions: Sequence[int],
                            max_lag: int) -> AcfReport:
    """Cross-ACF of the fitted panel projected on post-factor eigen-directions.

    ``directions`` are distinct 1-based eigenvalue indices of the fitted
    spectrum; each must exceed the estimated factor count (indices at or
    below it are factors, not residual directions) and be at most the
    number of eigenvectors the fit holds, min(p, n).  If the fit removed all serial
    correlation, these projected series behave like white noise.

    A direction whose eigenvalue is at or below ``RATIO_FLOOR`` (1e-12) of
    the largest is numerically null, the same zero the ratio rule masks:
    its projection is roundoff, so it is rejected.  The projections and
    the rule read the fit's unit-scale panel and spectrum, so they work
    at any scale; the autocorrelations do not depend on it.
    """
    computed = model.eigenvectors.shape[1]
    directions = _distinct((_integer_in("direction", d, 1) for d in directions),
                           "directions repeat direction {}")
    for d in directions:
        if d <= model.r_hat:
            raise DomainError(
                f"direction {d} is a factor direction (r_hat = {model.r_hat}), not a residual one"
            )
        if d > computed:
            raise DomainError(
                f"direction {d} exceeds the {computed} eigen-directions the fit holds (min(p, n))"
            )
    series = model.eigenvectors[:, [d - 1 for d in directions]].T @ model._centered
    panel_rms = np.sqrt((model._centered**2).mean())
    series_rms = np.sqrt((series**2).mean(axis=1))
    for d, rms in zip(directions, series_rms):
        if rms <= 1e-12 * panel_rms:
            raise DomainError(
                f"projection on direction {d} has zero variance relative to the panel"
            )
        if model._unit_eigenvalues[d - 1] <= RATIO_FLOOR * model._unit_eigenvalues[0]:
            raise DomainError(
                f"direction {d} is numerically null: its eigenvalue is at most "
                f"{RATIO_FLOOR:g} of the largest"
            )
    return cross_acf(series, max_lag, series_ids=[f"eig{d}" for d in directions])


def variance_explained(model: FactorModel) -> np.ndarray:
    """Share of total variance carried by each estimated factor direction.

    The share of direction ``g`` is the quadratic form ``g' S g`` over the
    trace of S, where S is the lag-0 sample covariance of the centered
    panel.  Orthonormal directions make the shares sum to at most one.
    The shares do not depend on scale, so they are computed from the
    fit's unit-scale panel.
    """
    total = (model._centered**2).mean(axis=1).sum()
    return (model._unit_factors**2).mean(axis=1) / total


def projection_residual_ratio(u, factors) -> float:
    """Fraction of an external series orthogonal to the factor-series span.

    Projects ``u`` (length n) onto the orthogonal complement of the row
    span of ``factors`` (r x n) inside R^n and returns the squared-norm
    ratio, a value in [0, 1]: zero means the series is a linear
    combination of the factor series, one means it is orthogonal to them.
    Neither input's scale matters, so each is first rescaled as fits are.
    An input holding NaN or inf is a DomainError naming the series and time.
    """
    u = np.asarray(u, dtype=float).ravel()
    f = np.atleast_2d(np.asarray(factors, dtype=float))
    _check_finite(u[None, :], ["series"])
    _check_finite(f, [f"factor series {i + 1}" for i in range(len(f))])
    u, f = _unit_scale(u)[0], _unit_scale(f)[0]
    if f.shape[1] != u.size:
        raise DimensionError(
            f"series length {u.size} does not match factor length {f.shape[1]}"
        )
    norm_sq = float(u @ u)
    if norm_sq == 0.0:
        raise DomainError("cannot project a zero series")
    basis, sv, _ = np.linalg.svd(f.T, full_matrices=False)
    if np.any(sv <= 1e-10 * sv[0]):
        raise DomainError("factor rows are rank deficient; the projection is ill-defined")
    residual = u - basis @ (basis.T @ u)
    return float(min(max(residual @ residual / norm_sq, 0.0), 1.0))
