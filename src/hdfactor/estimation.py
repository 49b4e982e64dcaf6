"""Core pipeline: lag autocovariances, pooled outer-product matrix, spectrum,
ratio-based factor counting, and factor/residual extraction.

The central object is the p x p matrix built by summing, over lags
k = 1..k0, the outer product of the lag-k sample autocovariance with
itself.  Directions orthogonal to the factor loading space are killed by
every lag-k autocovariance, so the nonzero-eigenvalue eigenspace of this
matrix estimates the loading space and the count of "large" eigenvalues
estimates the number of factors.  The count itself is chosen where the
ratio of consecutive eigenvalues is smallest, exploiting the faster decay
of the estimated zero-eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .panel import Panel

__all__ = [
    "AutocovSet",
    "EigenSystem",
    "FactorModel",
    "sample_autocov",
    "build_m",
    "sym_eigen",
    "ratio_estimate",
    "estimate",
    "two_step_estimate",
    "population_m",
    "default_ratio_span",
    "m_eigenvalues",
]

DEFAULT_K0 = 5
RATIO_FLOOR = 1e-12        # eigenvalues below this fraction of the largest are treated as zero
SYMMETRY_RTOL = 1e-10
STEP2_FLAT_RATIO = 0.5     # reporting flag only: second pass shows no sharp minimum
SCALE_BAND = 64            # panels whose largest |value| lies in [2^-64, 2^64] are not rescaled


@dataclass(frozen=True)
class AutocovSet:
    """Sample autocovariances at lags 0..k0 and their pooled matrix.

    Attributes
    ----------
    k0 : int
        Largest lag entering the pooled matrix.
    sigma : tuple of ndarray
        Lag-k sample autocovariance matrices for k = 0..k0.
    m_hat : ndarray, shape (p, p)
        Symmetrized sum over k = 1..k0 of ``sigma[k] @ sigma[k].T``.
    """

    k0: int
    sigma: tuple
    m_hat: np.ndarray

    def __post_init__(self):
        if len(self.sigma) != self.k0 + 1:
            raise DimensionError(
                f"expected {self.k0 + 1} autocovariance matrices, got {len(self.sigma)}"
            )
        scale = np.abs(self.m_hat).max()
        if scale > 0 and np.abs(self.m_hat - self.m_hat.T).max() > 1e-12 * scale:
            raise DomainError("pooled matrix is not symmetric")


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenvalues with orthonormal, sign-normalized eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) > 0):
            raise DomainError("eigenvalues must be in descending order")


@dataclass(frozen=True)
class FactorModel:
    """Fitted factor decomposition of a panel.

    ``loadings`` has orthonormal columns; ``factors`` is the projection of
    the centered panel onto them, and ``residuals`` is the remainder, so
    ``loadings @ factors + residuals`` reproduces the centered panel.

    For two-step fits, ``eigenvalues``/``ratios`` describe the first pass,
    the ``*_step2`` fields describe the second pass on the deflated panel,
    and ``r_hat == r1_hat + r2_hat``.  ``step2_no_sharp_minimum`` flags a
    second pass whose smallest eigenvalue ratio stays above 0.5, or one
    that found no eigenvalue above the ratio floor, i.e. one offering no
    clear evidence of further factors; it is a report, not a decision
    rule.

    ``eigenvalues`` always has length p.  ``eigenvectors`` holds the
    eigenvectors of the pooled matrix and has shape p x min(p, n): for
    p > n the eigenproblem is solved in the panel's n-dimensional column
    span, the eigenvalues past n are exact zeros, and the directions
    beyond the first n (null directions of the pooled matrix) are not
    formed.

    The model keeps its centered panel and spectrum at unit scale (see
    ``_unit_scale``), so counts, ratios, loadings and diagnostics do not
    depend on the data's scale.  ``factors``, ``residuals`` and
    ``residual_rms`` are formed from them on first read and cached, in the
    panel's units (eigenvalues in their fourth power).  A value past
    double range is reported as IEEE arithmetic gives it: ``inf`` above
    about 1.8e308, 0 below about 5e-324.
    """

    r_hat: int
    loadings: np.ndarray
    eigenvalues: np.ndarray
    ratios: np.ndarray
    k0: int
    ratio_span: int
    eigenvectors: np.ndarray = field(repr=False)
    _centered: np.ndarray = field(repr=False)          # the centered panel times 2**-_exponent
    _unit_eigenvalues: np.ndarray = field(repr=False)  # its pooled spectrum
    _exponent: int = field(repr=False)
    method: str = "one-step"
    r1_hat: Optional[int] = None
    r2_hat: Optional[int] = None
    eigenvalues_step2: Optional[np.ndarray] = None
    ratios_step2: Optional[np.ndarray] = None
    step2_no_sharp_minimum: Optional[bool] = None

    @cached_property
    def _unit_factors(self) -> np.ndarray:
        return self.loadings.T @ self._centered

    @cached_property
    def _unit_residuals(self) -> np.ndarray:
        return self._centered - self.loadings @ self._unit_factors

    @cached_property
    def factors(self) -> np.ndarray:
        return _in_units(self._unit_factors, self._exponent)

    @cached_property
    def residuals(self) -> np.ndarray:
        return _in_units(self._unit_residuals, self._exponent)

    @cached_property
    def residual_rms(self) -> float:
        return float(_in_units(np.sqrt((self._unit_residuals**2).mean()), self._exponent))


def _validate_lag(n: int, k: int, largest: bool = False) -> None:
    label = "k0" if largest else "lag k"
    low = 1 if largest else 0
    if int(k) != k or k < low or k > n - 2:
        raise DomainError(
            f"{label} must be an integer in [{low}, n-2] = [{low}, {n - 2}], got {k}"
        )


def _lag_covs(values: np.ndarray, lags, window_centering: bool):
    """Lag-k autocovariances of the rows of ``values``, divisor n, for each k in ``lags``."""
    n = values.shape[1]
    if not window_centering or 0 in lags:
        centered = values - values.mean(axis=1, keepdims=True)
    for k in lags:
        if window_centering and k > 0:
            lead = values[:, k:] - values[:, k:].mean(axis=1, keepdims=True)
            lag = values[:, : n - k] - values[:, : n - k].mean(axis=1, keepdims=True)
        else:
            lead, lag = centered[:, k:], centered[:, : n - k]
        yield lead @ lag.T / n


def sample_autocov(panel: Panel, k: int, *, window_centering: bool = False) -> np.ndarray:
    """Lag-k sample autocovariance matrix of the panel, divisor n.

    By default both windows are centered by the full-sample mean.  With
    ``window_centering`` each k-shifted window is centered by its own mean
    instead; the two differ by O(1/n).

    Raises
    ------
    DomainError
        If ``k`` is not in ``[0, n-2]`` (insufficient data).
    """
    _validate_lag(panel.n, k)
    return next(_lag_covs(panel.values, [int(k)], window_centering))


def _pool(lag_covs) -> np.ndarray:
    """Symmetrized sum of ``s @ s.T`` over the lag autocovariances, in order.

    Every pooled matrix in the package is summed here, so the same lags
    give the same bits.  The sum starts from 0.0, which adds like a zero
    matrix.
    """
    m = 0.0
    for s in lag_covs:
        m += s @ s.T
    return (m + m.T) / 2


def build_m(panel: Panel, k0: int, *, window_centering: bool = False) -> AutocovSet:
    """Assemble the pooled lag-autocovariance matrix for lags 1..k0.

    Each lag contributes the nonnegative-definite ``sigma_k @ sigma_k.T``
    so that information from different lags cannot cancel.  The sum is
    explicitly symmetrized to guard against floating-point asymmetry
    before the eigensolve.
    """
    _validate_lag(panel.n, k0, largest=True)
    k0 = int(k0)
    sigma = tuple(_lag_covs(panel.values, range(k0 + 1), window_centering))
    return AutocovSet(k0=k0, sigma=sigma, m_hat=_pool(sigma[1:]))


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the entry of largest magnitude (first on ties) is positive."""
    vectors = vectors.copy()
    lead = np.abs(vectors).argmax(axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1
    return vectors


def sym_eigen(m: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    The sign of each eigenvector is fixed deterministically: its entry of
    largest magnitude (lowest index on ties) is made positive, so results
    are reproducible across runs and platforms.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
        raise DomainError("matrix is not symmetric within 1e-10 relative tolerance")
    m = (m + m.T) / 2
    values, vectors = np.linalg.eigh(m)  # ascending
    values = values[::-1].copy()
    vectors = _normalize_signs(vectors[:, ::-1])
    return EigenSystem(eigenvalues=values, eigenvectors=vectors)


def _span(values: np.ndarray, basis: bool = True):
    """Basis and coordinates of the panel's column span.

    For p <= n the basis is the identity (``None``) and the coordinates are
    the panel itself.  For p > n they are the reduced QR ``values = Q R``,
    with Q of shape p x n; QR needs no rank threshold, unlike an SVD.  With
    ``basis`` false Q is not formed (``None``); R comes from the same
    factorization, bit for bit.
    """
    if values.shape[0] <= values.shape[1]:
        return None, values
    if basis:
        return np.linalg.qr(values)
    return None, np.linalg.qr(values, mode="r")


def _unit_scale(values: np.ndarray):
    """``(values * 2**-e, e)``, with the largest |value| moved into [0.5, 1).

    e is 0, and ``values`` is returned as it is, when its largest |value|
    lies in [2^-64, 2^64] or is 0.  Scaling by a power of two is exact
    (entries below 2^-1022 of the largest may round), and every later step
    scales with it bit for bit, so counts and ratios do not depend on e,
    while the pooled matrix, which grows with the fourth power of the
    scale, can neither overflow nor underflow.
    """
    top = max(float(values.max()), -float(values.min()))
    if top == 0.0 or 2.0**-SCALE_BAND <= top <= 2.0**SCALE_BAND:
        return values, 0
    e = math.frexp(top)[1]
    return np.ldexp(values, -e), e


def _in_units(values: np.ndarray, e: int) -> np.ndarray:
    """``values * 2**e``: inf past the largest double, 0 below the smallest."""
    if e == 0:
        return values
    with np.errstate(over="ignore", under="ignore"):
        return np.ldexp(values, e)


def _pooled_eigen(coords, p: int, k0: int, window_centering: bool = False, vectors: bool = True):
    """Descending spectrum of the pooled matrix of a panel given in span coordinates.

    Returns ``(eigenvalues, eigenvectors)``: the spectrum padded with exact
    zeros to length p, and the sign-normalized eigenvectors in coordinate
    space, or ``None`` when ``vectors`` is false.

    Centering, in either mode, commutes with multiplying by the span basis
    Q, so the pooled matrix of the panel ``Q R`` is ``Q M(R) Q'``: its
    eigenvectors are Q times those of ``M(R)``, and its eigenvalues past
    the span's dimension are exact zeros.
    """
    m = _pool(_lag_covs(coords, range(1, k0 + 1), window_centering))
    if vectors:
        system = sym_eigen(m)
        lam, coord_vectors = system.eigenvalues, system.eigenvectors
    else:
        lam, coord_vectors = np.linalg.eigvalsh(m)[::-1], None
    if p > lam.size:
        # Clipping roundoff negatives keeps the padded spectrum descending.
        lam = np.concatenate([np.clip(lam, 0.0, None), np.zeros(p - lam.size)])
    return lam, coord_vectors


def _in_panel(basis: Optional[np.ndarray], coord_vectors: np.ndarray) -> np.ndarray:
    """Map coordinate-space eigenvectors to sign-normalized panel-space ones."""
    return coord_vectors if basis is None else _normalize_signs(basis @ coord_vectors)


def default_ratio_span(p: int) -> int:
    """Default search span for the ratio estimator: floor(p/2), capped at p-1."""
    return min(max(1, p // 2), p - 1)


def ratio_estimate(eigenvalues: Sequence[float], ratio_span: Optional[int] = None):
    """Estimate the number of factors from a descending spectrum.

    Returns ``(r_hat, ratios)`` where ``ratios[i-1]`` is the ratio of the
    (i+1)-th to the i-th largest eigenvalue for i = 1..ratio_span and
    ``r_hat`` is the index minimizing it.  Indices whose eigenvalue is
    numerically zero (below 1e-12 of the largest) are excluded from the
    search and carry NaN in the ratio trace; the minimum eigenvalue is
    expected to be practically zero in high dimensions, and dividing by it
    would produce spurious minima.  Ties go to the smallest index.

    Parameters
    ----------
    eigenvalues : sequence of float
        Descending, nonnegative up to solver roundoff; small negatives are
        clamped to zero.
    ratio_span : int, optional
        Largest index searched (the constant R).  Defaults to
        ``min(max(1, p // 2), p - 1)``.
    """
    lam = np.asarray(eigenvalues, dtype=float).copy()
    p = lam.size
    if p < 2:
        raise DimensionError("ratio estimation needs at least two eigenvalues")
    if np.any(np.diff(lam) > 1e-12 * max(abs(lam[0]), 1e-300)):
        raise DomainError("eigenvalues must be in descending order")
    if (lam[0] > 0 and lam.min() < -1e-8 * lam[0]) or lam[0] < -1e-300:
        raise DomainError("spectrum has a significantly negative eigenvalue; matrix is not PSD")
    np.clip(lam, 0.0, None, out=lam)
    if lam[0] < 1e-300:
        raise DomainError("degenerate spectrum: all eigenvalues are numerically zero")
    if ratio_span is None:
        ratio_span = default_ratio_span(p)
    ratio_span = int(ratio_span)
    if not 1 <= ratio_span <= p - 1:
        raise DomainError(f"ratio span must be in [1, p-1] = [1, {p - 1}], got {ratio_span}")

    floor = RATIO_FLOOR * lam[0]
    ratios = np.full(ratio_span, np.nan)
    eligible = lam[:ratio_span] > floor
    ratios[eligible] = lam[1 : ratio_span + 1][eligible] / lam[:ratio_span][eligible]
    r_hat = int(np.nanargmin(ratios)) + 1
    return r_hat, ratios


def m_eigenvalues(values: np.ndarray, k0: int, *, window_centering: bool = False) -> np.ndarray:
    """Descending spectrum of the pooled matrix, skipping eigenvector work.

    Fast path for the Monte Carlo studies, which need only the spectrum.
    It solves for eigenvalues alone (``np.linalg.eigvalsh``) where
    ``estimate`` also forms the eigenvectors for its loadings; at the
    studies' sizes (p = 20 to 200) the vectors cost 2 to 3 times as much,
    so both modes stay.  The two
    agree in exact arithmetic but not bitwise: their spectra differ by
    roundoff, within 1e-12 of the largest eigenvalue, and give the same
    factor count on a seeded Table-1 grid (pinned by the tests).  For p > n
    the entries past n are exact zeros, and only the R of the panel's QR
    is formed.

    For a panel that ``_unit_scale`` rescales by 2^-e (its largest |value|
    lies outside [2^-64, 2^64]), the spectrum is that of the rescaled
    panel, 2^(-4e) times the panel's own: the same ratios and counts, and
    never past double range.
    """
    values = _unit_scale(np.asarray(values, dtype=float))[0]
    coords = _span(values, basis=False)[1]
    return _pooled_eigen(coords, values.shape[0], int(k0), window_centering, False)[0]


class _FirstPass(NamedTuple):
    """The eigenanalysis that ``estimate`` and ``two_step_estimate`` share."""

    centered: np.ndarray             # the centered p x n panel
    basis: Optional[np.ndarray]      # span basis Q for p > n, None (identity) otherwise
    coords: np.ndarray               # the centered panel in span coordinates
    k0: int
    eigenvalues: np.ndarray
    coord_vectors: np.ndarray        # eigenvectors in span coordinates
    eigenvectors: np.ndarray         # the same in panel space
    r_hat: int
    ratios: np.ndarray
    ratio_span: int
    exponent: int                    # the panel was fitted times 2**-exponent


def _first_pass(panel: Panel, k0, ratio_span, window_centering) -> _FirstPass:
    """Rescale and center the panel, eigensolve its pooled matrix in span coordinates, count."""
    _validate_lag(panel.n, k0, largest=True)
    k0 = int(k0)
    values, e = _unit_scale(panel.values)
    centered = values - values.mean(axis=1, keepdims=True)
    if not centered.any():
        # A wide panel's span coordinates would keep the roundoff of their own centring.
        raise DomainError("degenerate spectrum: the panel has zero variance")
    basis, coords = _span(values)
    lam, coord_vectors = _pooled_eigen(coords, panel.p, k0, window_centering)
    if panel.p == 1:
        span, r_hat, ratios = 0, 1, np.empty(0)
    else:
        span = default_ratio_span(panel.p) if ratio_span is None else int(ratio_span)
        r_hat, ratios = ratio_estimate(lam, span)
    coords = centered if basis is None else coords - coords.mean(axis=1, keepdims=True)
    return _FirstPass(centered, basis, coords, k0, lam, coord_vectors,
                      _in_panel(basis, coord_vectors), r_hat, ratios, span, e)


def _fit(first: _FirstPass, loadings: np.ndarray, **extra) -> FactorModel:
    """Factor model of the centered panel on orthonormal ``loadings``, in the panel's units."""
    return FactorModel(
        r_hat=loadings.shape[1], loadings=loadings, ratios=first.ratios, k0=first.k0,
        eigenvalues=_in_units(first.eigenvalues, 4 * first.exponent),
        ratio_span=first.ratio_span, eigenvectors=first.eigenvectors, _centered=first.centered,
        _unit_eigenvalues=first.eigenvalues, _exponent=first.exponent, **extra,
    )


def estimate(
    panel: Panel,
    k0: int = DEFAULT_K0,
    ratio_span: Optional[int] = None,
    *,
    window_centering: bool = False,
) -> FactorModel:
    """One-step fit: count factors and extract loadings, factors, residuals.

    The panel is centered internally; the loadings are the eigenvectors of
    the pooled lag-autocovariance matrix paired with its ``r_hat`` largest
    eigenvalues, the factor series is their projection of the centered
    panel, and the residuals are the orthogonal remainder.

    A univariate panel (p = 1) skips the ratio search, which needs two
    eigenvalues: its single direction is the one factor, with an empty
    ratio trace.
    """
    first = _first_pass(panel, k0, ratio_span, window_centering)
    return _fit(first, first.eigenvectors[:, : first.r_hat])


def two_step_estimate(
    panel: Panel,
    k0: int = DEFAULT_K0,
    ratio_span: Optional[int] = None,
    r1_override: Optional[int] = None,
    *,
    window_centering: bool = False,
) -> FactorModel:
    """Two-step fit for factors of mixed strength.

    Step one is the one-step eigenanalysis; it keeps the ``r1`` leading
    directions (``r1_override`` replaces the estimated count when given).
    Step two projects them out of the panel in the first pass's span
    coordinates, reruns the eigenanalysis there, and appends the ``r2``
    leading directions it finds; for p > n that is again an n x n problem,
    with no second QR.  The combined loadings stay orthonormal because the
    deflated panel lies in the orthogonal complement of the first-pass
    directions.

    When the first pass takes the panel's whole column span (``r1`` equal
    to its rank), the deflated panel is roundoff: its top eigenvalue is at
    most 1e-12 of the first pass's.  The second pass then reports
    ``r2 = 0``, an all-NaN ratio trace and no sharp minimum.
    """
    if panel.p == 1:
        raise DomainError("two-step estimation is degenerate for a univariate panel")
    first = _first_pass(panel, k0, ratio_span, window_centering)
    r1 = first.r_hat if r1_override is None else int(r1_override)
    # Past min(p, n) columns there are no computed directions to deflate.
    limit = min(panel.p - 1, first.coord_vectors.shape[1])
    if not 1 <= r1 <= limit:
        raise DomainError(
            f"first-pass factor count must be in [1, min(p-1, n)] = [1, {limit}], got {r1}"
        )
    w1 = first.coord_vectors[:, :r1]
    deflated = first.coords - w1 @ (w1.T @ first.coords)
    lam2, coord_vectors2 = _pooled_eigen(deflated, panel.p, first.k0, window_centering)
    if lam2[0] <= RATIO_FLOOR * first.eigenvalues[0]:
        r2, ratios2 = 0, np.full(first.ratio_span, np.nan)
    else:
        r2, ratios2 = ratio_estimate(lam2, first.ratio_span)
    loadings2 = _in_panel(first.basis, coord_vectors2[:, :r2])
    return _fit(first, np.hstack([first.eigenvectors[:, :r1], loadings2]), method="two-step",
                r1_hat=r1, r2_hat=r2, eigenvalues_step2=_in_units(lam2, 4 * first.exponent),
                ratios_step2=ratios2,
                step2_no_sharp_minimum=r2 == 0 or bool(np.nanmin(ratios2) > STEP2_FLAT_RATIO))


def population_m(loadings: np.ndarray, ar_coeffs: Sequence[float], k0: int):
    """Population pooled matrix for a diagonal AR(1) factor process.

    With unit-variance innovations and factors uncorrelated with the
    noise, the lag-k model autocovariance is ``A diag(theta^k/(1-theta^2)) A'``
    and the pooled matrix has exactly ``r`` nonzero eigenvalues.  Used as
    the oracle in convergence-rate experiments.

    Returns
    -------
    (m, eigenvalues) : ndarray pair
        The p x p matrix and its descending spectrum.
    """
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim == 1:
        loadings = loadings[:, None]
    theta = np.asarray(ar_coeffs, dtype=float)
    if theta.ndim != 1 or theta.size != loadings.shape[1]:
        raise DimensionError(
            f"need one AR coefficient per factor, got {theta.size} for {loadings.shape[1]} factors"
        )
    if not np.all(np.abs(theta) < 1):
        raise DomainError("AR coefficients must lie strictly inside (-1, 1)")
    if int(k0) != k0 or k0 < 1:
        raise DomainError(f"k0 must be a positive integer, got {k0}")
    var0 = 1.0 / (1.0 - theta**2)
    m = _pool((loadings * (theta**k * var0)) @ loadings.T for k in range(1, int(k0) + 1))
    return m, np.linalg.eigvalsh(m)[::-1]
