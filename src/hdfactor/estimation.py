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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, _integer_in
from .panel import Panel

__all__ = [
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
class FactorModel:
    """Fitted factor decomposition of a panel.

    ``loadings`` has orthonormal columns; ``factors`` is the projection of
    the centered panel onto them, and ``residuals`` is the remainder, so
    ``loadings @ factors + residuals`` reproduces the centered panel.

    A two-step fit is its one-step fit plus the second pass: ``loadings``
    and ``r_hat`` extended by its directions, and the ``*_step2`` fields
    describing it on the deflated panel, so ``r_hat == r1_hat + r2_hat``.
    ``step2_no_sharp_minimum`` flags a second pass whose smallest
    eigenvalue ratio stays above 0.5, or one that found no eigenvalue
    above the ratio floor, i.e. one offering no clear evidence of further
    factors; it is a report, not a decision rule.

    ``eigenvalues`` always has length p.  ``eigenvectors`` holds the
    eigenvectors of the pooled matrix and has shape p x min(p, n): for
    p > n the eigenproblem is solved in the panel's n-dimensional column
    span, the eigenvalues past n are exact zeros, and the directions
    beyond the first n (null directions of the pooled matrix) are not
    formed.

    The model keeps its centered panel, spectrum and span-coordinate
    eigenvectors at unit scale (see ``_unit_scale``), so counts, ratios,
    loadings and diagnostics do not depend on the data's scale.  The
    ``eigenvectors``, ``factors``, ``residuals`` and ``residual_rms`` are
    formed on first read and cached, in the panel's units (eigenvalues in
    their fourth power).  A value past double range is reported as IEEE
    arithmetic gives it: ``inf`` above about 1.8e308, 0 below about 5e-324.
    """

    r_hat: int
    loadings: np.ndarray
    eigenvalues: np.ndarray
    ratios: np.ndarray
    k0: int
    ratio_span: int
    _centered: np.ndarray = field(repr=False)          # the centered panel times 2**-_exponent
    _unit_eigenvalues: np.ndarray = field(repr=False)  # its pooled spectrum
    _exponent: int = field(repr=False)
    _basis: Optional[np.ndarray] = field(repr=False)   # span basis Q for p > n, None otherwise
    _vectors: np.ndarray = field(repr=False)           # pooled eigenvectors in span coordinates
    _coords: np.ndarray = field(repr=False)            # _centered in span coordinates
    method: str = "one-step"
    r1_hat: Optional[int] = None
    r2_hat: Optional[int] = None
    eigenvalues_step2: Optional[np.ndarray] = None
    ratios_step2: Optional[np.ndarray] = None
    step2_no_sharp_minimum: Optional[bool] = None

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _in_panel(self._basis, self._vectors)

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
    k = _integer_in("lag k", k, 0, panel.n - 2, "n-2")
    return next(_lag_covs(panel.values, [k], window_centering))


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


def build_m(panel: Panel, k0: int, *, window_centering: bool = False) -> np.ndarray:
    """The p x p pooled lag-autocovariance matrix for lags 1..k0.

    Each lag contributes the nonnegative-definite ``sigma_k @ sigma_k.T``
    so that information from different lags cannot cancel.  The sum is
    explicitly symmetrized to guard against floating-point asymmetry
    before the eigensolve.

    This is the dense reference that the tests hold fits to; the fits
    themselves pool in the panel's column span (see ``_pooled_eigen``).
    """
    k0 = _integer_in("k0", k0, 1, panel.n - 2, "n-2")
    return _pool(_lag_covs(panel.values, range(1, k0 + 1), window_centering))


def _normalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the entry of largest magnitude (first on ties) is positive."""
    vectors = vectors.copy()
    lead = np.abs(vectors).argmax(axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] *= -1
    return vectors


def sym_eigen(m: np.ndarray):
    """``(eigenvalues, eigenvectors)`` of a symmetric matrix, like ``np.linalg.eigh``
    but with the eigenvalues descending.

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
    return values[::-1].copy(), _normalize_signs(vectors[:, ::-1])


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
        lam, coord_vectors = sym_eigen(m)
    else:
        lam, coord_vectors = np.linalg.eigvalsh(m)[::-1], None
    if p > lam.size:
        # Clipping roundoff negatives keeps the padded spectrum descending.
        lam = np.concatenate([np.clip(lam, 0.0, None), np.zeros(p - lam.size)])
    return lam, coord_vectors


def _panel_spectrum(panel: Panel, k0: int, window_centering: bool, vectors: bool):
    """Front end of every fit and spectrum: ``(lam, vectors, basis, coords, values, e)``.

    It checks ``k0``, rescales (``values`` is the panel times 2^-e), rejects
    a panel of constant series, and solves the pooled matrix in the panel's
    column span.  For p <= n the basis is the identity (``None``) and the
    coordinates are ``values``; for p > n they are the reduced QR
    ``values = Q R``, Q of shape p x n, which needs no rank threshold,
    unlike an SVD.  Without ``vectors`` neither Q nor the eigenvectors are
    formed (``None``), and R comes from the same factorization, bit for bit.
    """
    k0 = _integer_in("k0", k0, 1, panel.n - 2, "n-2")
    values, e = _unit_scale(panel.values)
    # Centring a constant series can leave roundoff, which would count as a factor.
    # Two columns settle almost every panel before the whole one is compared.
    if not np.any(values[:, 1] != values[:, 0]) and np.all(values == values[:, :1]):
        raise DomainError("degenerate spectrum: the panel has zero variance")
    if panel.p <= panel.n:
        basis, coords = None, values
    elif vectors:
        basis, coords = np.linalg.qr(values)
    else:
        basis, coords = None, np.linalg.qr(values, mode="r")
    lam, coord_vectors = _pooled_eigen(coords, panel.p, k0, window_centering, vectors)
    return lam, coord_vectors, basis, coords, values, e


def _in_panel(basis: Optional[np.ndarray], coord_vectors: np.ndarray) -> np.ndarray:
    """Map coordinate-space eigenvectors to sign-normalized panel-space ones."""
    return coord_vectors if basis is None else _normalize_signs(basis @ coord_vectors)


def default_ratio_span(p: int, n: int) -> int:
    """Default search span R of the ratio estimator: half the pooled matrix's rank bound.

    The bound is min(p, n-1), the rank bound of the centred panel and so of
    its pooled matrix: past it the spectrum is zeros and roundoff, where the
    ratio minimum would land on the rank limit.  Ratio rules bound their
    search well below min(n, p) (Ahn & Horenstein 2013, Econometrica; on
    lag-autocovariance spectra with p/n -> c, Li, Wang & Yao 2017, Ann.
    Statist.).  R lies in [1, p-1].
    """
    return min(max(1, min(p, n - 1) // 2), p - 1)


def ratio_estimate(eigenvalues: Sequence[float], ratio_span: int):
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
        Finite, descending, nonnegative up to solver roundoff; small
        negatives are clamped to zero.
    ratio_span : int
        Largest index searched (the constant R), an integer in [1, p-1];
        ``default_ratio_span(p, n)`` is the rule ``estimate`` and the
        studies use.
    """
    lam = np.asarray(eigenvalues, dtype=float).copy()
    p = lam.size
    if not np.isfinite(lam).all():
        raise DomainError("spectrum has a non-finite eigenvalue")
    if p < 2:
        raise DimensionError("ratio estimation needs at least two eigenvalues")
    if np.any(np.diff(lam) > 1e-12 * max(abs(lam[0]), 1e-300)):
        raise DomainError("eigenvalues must be in descending order")
    if (lam[0] > 0 and lam.min() < -1e-8 * lam[0]) or lam[0] < -1e-300:
        raise DomainError("spectrum has a significantly negative eigenvalue; matrix is not PSD")
    np.clip(lam, 0.0, None, out=lam)
    if lam[0] < 1e-300:
        raise DomainError("degenerate spectrum: all eigenvalues are numerically zero")
    ratio_span = _integer_in("ratio span", ratio_span, 1, p - 1, "p-1")

    floor = RATIO_FLOOR * lam[0]
    ratios = np.full(ratio_span, np.nan)
    eligible = lam[:ratio_span] > floor
    ratios[eligible] = lam[1 : ratio_span + 1][eligible] / lam[:ratio_span][eligible]
    r_hat = int(np.nanargmin(ratios)) + 1
    return r_hat, ratios


def m_eigenvalues(panel: Panel, k0: int, *, window_centering: bool = False) -> np.ndarray:
    """Descending spectrum of the panel's pooled matrix, skipping eigenvector work.

    The studies count from it.  It runs ``estimate``'s front end, checks
    and all, but solves for eigenvalues alone (``np.linalg.eigvalsh``, and
    only the R of a wide panel's QR): at the studies' sizes the vectors
    cost 2 to 3 times as much.  The two spectra differ by roundoff, within
    1e-12 of the largest eigenvalue, and give the same counts on a seeded
    Table-1 grid (pinned by the tests).  A panel that ``_unit_scale``
    rescales by 2^-e gets the spectrum of the rescaled panel, 2^(-4e) times
    its own: the same ratios and counts, never past double range.
    """
    return _panel_spectrum(panel, k0, window_centering, vectors=False)[0]


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

    ``ratio_span`` defaults to ``default_ratio_span(p, n)``; a given one must
    lie in [1, p-1], so a univariate panel (p = 1) takes none.  It skips the
    ratio search: its single direction is the one factor, with R = 0.
    """
    lam, vectors, basis, coords, values, e = _panel_spectrum(panel, k0, window_centering, True)
    span = (default_ratio_span(panel.p, panel.n) if ratio_span is None
            else _integer_in("ratio span", ratio_span, 1, panel.p - 1, "p-1"))
    if panel.p == 1:
        r_hat, ratios = 1, np.empty(0)
    else:
        r_hat, ratios = ratio_estimate(lam, span)
    centered = values - values.mean(axis=1, keepdims=True)
    return FactorModel(
        r_hat=r_hat, loadings=_in_panel(basis, vectors[:, :r_hat]),
        eigenvalues=_in_units(lam, 4 * e), ratios=ratios, k0=int(k0), ratio_span=span,
        _centered=centered, _unit_eigenvalues=lam, _exponent=e, _basis=basis, _vectors=vectors,
        _coords=centered if basis is None else coords - coords.mean(axis=1, keepdims=True),
    )


def two_step_estimate(
    panel: Panel,
    k0: int = DEFAULT_K0,
    ratio_span: Optional[int] = None,
    r1_override: Optional[int] = None,
    *,
    window_centering: bool = False,
) -> FactorModel:
    """Two-step fit for factors of mixed strength.

    Step one is ``estimate`` itself; it keeps the ``r1`` leading
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
    first = estimate(panel, k0, ratio_span, window_centering=window_centering)
    r1 = first.r_hat if r1_override is None else r1_override
    # Past min(p, n) columns there are no computed directions to deflate.
    limit = min(panel.p - 1, first._vectors.shape[1])
    r1 = _integer_in("first-pass factor count", r1, 1, limit, "min(p-1, n)")
    w1 = first._vectors[:, :r1]
    deflated = first._coords - w1 @ (w1.T @ first._coords)
    lam2, vectors2 = _pooled_eigen(deflated, panel.p, first.k0, window_centering)
    if lam2[0] <= RATIO_FLOOR * first._unit_eigenvalues[0]:
        r2, ratios2 = 0, np.full(first.ratio_span, np.nan)
    else:
        r2, ratios2 = ratio_estimate(lam2, first.ratio_span)
    loadings = [_in_panel(first._basis, v) for v in (w1, vectors2[:, :r2])]
    return replace(
        first, r_hat=r1 + r2, loadings=np.hstack(loadings), method="two-step", r1_hat=r1,
        r2_hat=r2, eigenvalues_step2=_in_units(lam2, 4 * first._exponent), ratios_step2=ratios2,
        step2_no_sharp_minimum=r2 == 0 or bool(np.nanmin(ratios2) > STEP2_FLAT_RATIO),
    )


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
    k0 = _integer_in("k0", k0, 1)
    var0 = 1.0 / (1.0 - theta**2)
    m = _pool((loadings * (theta**k * var0)) @ loadings.T for k in range(1, k0 + 1))
    return m, np.linalg.eigvalsh(m)[::-1]
