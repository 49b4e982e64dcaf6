"""Monte Carlo engine: data generation, factor-count frequency grids,
eigenvalue-error studies, ratio traces, and one-step vs two-step comparisons.

Replications are independent: each one draws its own generator seeded from
the base seed and the replication's coordinates (cell parameters and rep
index), so results do not depend on execution order or worker count, and
reruns are bit-identical.  A study forks one worker process per worker
and gives worker k every workers-th replication from the k-th, so every
cell is split evenly; the parent puts the results back in order.  Workers
are forked, not spawned, so they run the module's functions as they are
when the study starts.  Where ``os.fork`` is missing, and with one
worker, replications run in the calling process.  Under glibc, workers keep
freed memory for reuse; the calling process's malloc is never changed.

Studies run BLAS single-threaded: while one runs, numpy's bundled OpenBLAS
is held at one thread (``_openblas.single_thread_blas``), the workers,
forked inside the hold, inherit that setting, and the worker processes
supply the parallelism.
OpenBLAS's thread count changes result bits at study sizes, so this also
makes study outputs independent of ``HDFACTOR_THREADS``,
``OPENBLAS_NUM_THREADS`` and the core count.  With a numpy built against
another BLAS the thread count is left alone, and the guarantee covers the
worker count only.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import pickle
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

from . import _openblas
from .errors import (DimensionError, DomainError, HDFactorError, _distinct, _integer_in,
                     _real_number)
from .estimation import (
    default_ratio_span,
    m_eigenvalues,
    population_m,
    ratio_estimate,
    two_step_estimate,
)
from .panel import Panel

__all__ = [
    "Scenario",
    "SimulationTruth",
    "McResult",
    "EigenErrorStudy",
    "RatioTraceStudy",
    "TwoStepStudy",
    "SlopeFit",
    "generate",
    "run_table1",
    "eigen_error_study",
    "fit_error_slopes",
    "ratio_trace_study",
    "two_step_study",
    "derive_seed",
]

FACTOR_BURN_IN = 200       # VAR(1) warm-up discarded so factors start stationary
GENERATOR_ID = "numpy.random.PCG64"
LOADING_SCHEMES = ("uniform-scaled", "all-ones")
MIN_N = 4                  # shortest series a scenario draws
TABLE1_AR_COEFFS = (0.6, -0.5, 0.3)


@dataclass(frozen=True)
class Scenario:
    """One simulation design: dimensions, factor strengths, dynamics, seed.

    ``deltas[j]`` is the strength exponent of factor j: its loading column
    is drawn entrywise from U[-1, 1] (all ones under the ``all-ones``
    scheme) and divided by p**(delta/2), so the squared column norm grows
    like p**(1-delta).  Strength 0 is a strong factor loading on most
    series; larger deltas thin the loading out.
    The factor process is a diagonal VAR(1) with unit-variance Gaussian
    innovations, and the noise is i.i.d. Gaussian.  The integer fields (n,
    p, r, k0, seed) refuse 2.5, True or "3" and are stored as ``int``; the
    real ones (deltas, ar_coeffs, noise_var) refuse True or "0.5" and are
    stored as ``float``.
    """

    n: int
    p: int
    r: int
    deltas: tuple
    ar_coeffs: tuple
    noise_var: float = 1.0
    k0: int = 1
    loading_scheme: str = "uniform-scaled"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer_in("n", self.n, MIN_N))
        object.__setattr__(self, "p", _integer_in("p", self.p, 1))
        object.__setattr__(self, "r", _integer_in("r", self.r, 1, self.p, "p"))
        object.__setattr__(self, "k0", _integer_in("k0", self.k0, 1, self.n - 2, "n-2"))
        object.__setattr__(self, "seed", _integer_in("seed", self.seed, 0))
        object.__setattr__(self, "deltas", tuple(_real_number("delta", d) for d in self.deltas))
        object.__setattr__(self, "ar_coeffs",
                           tuple(_real_number("AR coefficient", a) for a in self.ar_coeffs))
        object.__setattr__(self, "noise_var", _real_number("noise_var", self.noise_var))
        if len(self.deltas) != self.r or len(self.ar_coeffs) != self.r:
            raise DimensionError("deltas and ar_coeffs must have one entry per factor")
        if any(not 0 <= d <= 1 for d in self.deltas):
            raise DomainError("factor strengths must lie in [0, 1]")
        if any(not abs(a) < 1 for a in self.ar_coeffs):
            raise DomainError("AR coefficients must lie strictly inside (-1, 1)")
        if not 0 <= self.noise_var < math.inf:
            raise DomainError("noise variance must be finite and non-negative")
        if self.loading_scheme not in LOADING_SCHEMES:
            raise DomainError(f"loading scheme must be one of {LOADING_SCHEMES}")
        if self.loading_scheme == "all-ones" and self.r != 1:
            raise DomainError("all-ones loadings are rank one; they require r = 1")


@dataclass(frozen=True)
class SimulationTruth:
    """The latent quantities behind one generated panel."""

    loadings: np.ndarray
    factors: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class McResult:
    """Replication summary: the factor-count histogram, its total and its hit frequency."""

    scenario: Scenario
    r_hat_counts: dict

    @property
    def reps(self) -> int:
        return sum(self.r_hat_counts.values())

    @property
    def freq_correct(self) -> float:
        return self.r_hat_counts.get(self.scenario.r, 0) / self.reps


@dataclass(frozen=True)
class EigenErrorStudy:
    """Eigenvalue-estimation errors against the population oracle.

    ``errors[n]`` has one row per replication and one column per tracked
    eigenvalue index, holding estimated minus population value.
    """

    scenario: Scenario
    n_grid: tuple
    p_of_n: dict
    tracked_j: tuple
    errors: dict
    population: dict


@dataclass(frozen=True)
class RatioTraceStudy:
    """Per-replication eigenvalue-ratio sequences over a size grid."""

    scenario: Scenario
    n_grid: tuple
    p_of_n: dict
    traces: dict
    median_ratios: dict


@dataclass(frozen=True)
class TwoStepStudy:
    """One-step vs two-step factor counting on the same replications.

    Each replication is one ``two_step_estimate`` fit.  ``freq_two`` counts
    replications where the first- and second-pass counts sum to the true
    number of factors.  ``freq_two_sharp`` only accepts the second-pass
    factors when that pass shows a sharp minimum (the fit's
    ``step2_no_sharp_minimum`` is false), mirroring how a practitioner
    reads the second-pass ratio plot before adding factors.
    """

    scenario: Scenario
    reps: int
    one_step_counts: dict
    pair_counts: dict
    freq_one: float
    freq_two: float
    freq_two_sharp: float


@dataclass(frozen=True)
class SlopeFit:
    """Log-log OLS slope of median absolute error against sample size."""

    j: int
    slope: float
    ci_low: float
    ci_high: float


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from non-negative integer coordinates.

    Built on the hash tree of ``numpy.random.SeedSequence`` so that
    replication streams are independent of grid order and worker count.
    """
    seq = np.random.SeedSequence(tuple(_integer_in("seed coordinate", x, 0) for x in parts))
    return int(seq.generate_state(1, np.uint64)[0])


def _delta_code(delta: float) -> int:
    return int(round(float(delta) * 1_000_000))


def worker_count() -> int:
    """Worker cap for a study's worker processes, from HDFACTOR_THREADS when set.

    Otherwise the number of CPUs this process may run on.
    """
    env = os.environ.get("HDFACTOR_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise DomainError(f"HDFACTOR_THREADS must be an integer, got {env!r}") from None
        return _integer_in("HDFACTOR_THREADS", value, 1)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _loadings(scenario: Scenario, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """The scenario's p x r loading matrix, each column j divided by p**(deltas[j]/2).

    Its entries are ones under the all-ones scheme, which draws nothing
    (``rng`` may be None), and U[-1, 1] draws from ``rng`` otherwise.
    """
    p, r = scenario.p, scenario.r
    if scenario.loading_scheme == "all-ones":
        loadings = np.ones((p, r))
    else:
        loadings = rng.uniform(-1.0, 1.0, size=(p, r))
    for j in range(r):
        loadings[:, j] /= p ** (scenario.deltas[j] / 2.0)
    return loadings


def generate(scenario: Scenario):
    """Draw one panel from the scenario, returning it with its truth.

    Draw order is fixed (loadings, factor innovations, noise) so a seed
    pins the panel bitwise.  The factor VAR(1) starts from zero and a
    200-step warm-up is discarded, leaving the retained stretch at the
    stationary distribution for practical purposes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    p, n, r = scenario.p, scenario.n, scenario.r
    loadings = _loadings(scenario, rng)
    innovations = rng.standard_normal((r, n + FACTOR_BURN_IN))
    factors = np.empty_like(innovations)
    for j in range(r):
        # Python floats: one rounding per product and per sum, the same bits as
        # an IIR filter, and far cheaper than indexing numpy elements.
        theta, level, path = scenario.ar_coeffs[j], 0.0, []
        for shock in innovations[j].tolist():
            level = shock + theta * level
            path.append(level)
        factors[j] = path
    factors = factors[:, FACTOR_BURN_IN:]
    noise = rng.standard_normal((p, n)) * math.sqrt(scenario.noise_var)
    panel = Panel(loadings @ factors + noise)
    return panel, SimulationTruth(loadings=loadings, factors=factors, noise=noise)


def _replicate(cells: list, reps: int, workers: Optional[int], measure: Callable) -> list:
    """``reps`` measured replications of every cell, one result list per cell.

    Each cell is a ``(scenario, coords)`` pair.  Replication ``rep`` draws
    its panel from the seed derived from the scenario's seed, ``coords`` and
    ``rep``, and returns ``measure(scn, panel)``.  With more than one
    worker and more than one replication, ``_forked`` runs them in worker
    processes, never more workers than replications.
    """
    if not cells:
        raise DomainError("need at least one grid cell")
    reps = _integer_in("reps", reps, 1)

    def run(job):
        (scenario, coords), rep = job
        scn = replace(scenario, seed=derive_seed(scenario.seed, *coords, rep))
        panel, _ = generate(scn)
        return measure(scn, panel)

    jobs = list(itertools.product(cells, range(reps)))
    workers = worker_count() if workers is None else _integer_in("workers", workers, 1)
    workers = min(len(jobs), workers)
    if workers == 1 or not hasattr(os, "fork"):
        results = [run(job) for job in jobs]
    else:
        # numpy imports numpy.random on first use, which takes about 50 ms:
        # once here, in the parent, rather than in every worker of every study.
        import numpy.random  # noqa: F401
        results = _forked(run, jobs, workers)
    return [results[i * reps:(i + 1) * reps] for i in range(len(cells))]


# Held while a study creates its pipes and forks, so that no worker of a
# study in another thread inherits a pipe's write end.  Such a copy holds
# off that pipe's end of file until the other study's worker exits, and
# two studies whose workers each wait on a full pipe would wait for ever.
_FORK_LOCK = threading.Lock()


def _forked(run: Callable, jobs: list, workers: int) -> list:
    """``[run(job) for job in jobs]``, computed by ``workers`` forked processes.

    Worker k runs ``jobs[k::workers]`` and sends back, through a pipe, its
    pickled results or the exception that stopped it; the parent re-raises
    that exception.  Every worker is reaped before this returns or raises,
    and killed first when the parent stops early (an exception or an
    interrupt while it waits).

    Raises
    ------
    HDFactorError
        If a worker ends without sending anything, naming the worker.
    """
    import signal

    children, payloads = [], []
    try:
        with _FORK_LOCK:
            for k in range(workers):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
                    raise
                if pid == 0:
                    os.close(read_end)
                    _worker(run, jobs[k::workers], write_end)
                children.append((pid, os.fdopen(read_end, "rb")))
                os.close(write_end)
        payloads = [reader.read() for _, reader in children]
    finally:
        statuses = []
        for pid, reader in children:
            reader.close()
            if len(payloads) < len(children):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results = [None] * len(jobs)
    for k, ((pid, _), payload, code) in enumerate(zip(children, payloads, statuses)):
        if code != 0 or not payload:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise HDFactorError(f"replication worker {k} (pid {pid}) ended without a result ({how})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results[k::workers] = value
    return results


def _mallopt() -> Optional[Callable]:
    """The C library's ``mallopt``, or None where it has none."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return mallopt


def _keep_freed_memory() -> None:
    """Keep freed blocks under 32 MiB, and up to 1 GiB free at the heap top, for reuse.

    glibc's ``M_MMAP_THRESHOLD`` (-3) and ``M_TRIM_THRESHOLD`` (-1); nothing where
    ``mallopt`` is missing or returns 0.  At (1600, 800) a two-step replication
    leaves over 64 MiB free at the heap top.
    """
    mallopt = _mallopt()
    if mallopt is not None and mallopt(-3, 32 << 20):
        mallopt(-1, 1 << 30)


def _worker(run: Callable, jobs: list, write_end: int) -> NoReturn:
    """A forked worker's whole life: run ``jobs``, send ``(ok, results or exception)``, exit.

    It first calls ``_keep_freed_memory`` (glibc only): replications reuse freed
    memory instead of faulting in fresh pages, and the caller's malloc is untouched.
    It leaves through ``os._exit``, so it never returns into the parent's
    code and never flushes stdio buffers it inherited.  Exit status 0 means
    the payload was sent in full.
    """
    code = 1
    try:
        _keep_freed_memory()
        try:
            payload = True, [run(job) for job in jobs]
        except BaseException as exc:  # sent to the parent, which re-raises it
            payload = False, exc
        data = pickle.dumps(payload)
        with os.fdopen(write_end, "wb") as out:
            out.write(data)
        code = 0
    finally:
        os._exit(code)


def _spectrum(scn: Scenario, panel: Panel) -> np.ndarray:
    """Measure: the pooled spectrum of a replication's panel."""
    return m_eigenvalues(panel, scn.k0)


def _ratio_count(scn: Scenario, panel: Panel) -> int:
    """Measure: the ratio estimate of the factor count over the default span."""
    return ratio_estimate(_spectrum(scn, panel), default_ratio_span(scn.p, scn.n))[0]


def _ratio_trace(scn: Scenario, panel: Panel) -> np.ndarray:
    """Measure: the eigenvalue-ratio sequence over the default span."""
    return ratio_estimate(_spectrum(scn, panel), default_ratio_span(scn.p, scn.n))[1]


def _two_step_counts(scn: Scenario, panel: Panel) -> tuple:
    """Measure: a two-step fit's ``(r1_hat, r2_hat, second pass has a sharp minimum)``."""
    fit = two_step_estimate(panel, scn.k0)
    return fit.r1_hat, fit.r2_hat, not fit.step2_no_sharp_minimum


def _scaled_p(coef: float, n: int) -> int:
    """The dimension ``round(coef * n)`` of a cell whose p grows with n."""
    if not math.isfinite(coef * n):
        raise DomainError(f"p = {coef:g} * {n} is not a finite dimension")
    return int(round(coef * n))


def _check_ratio_dims(dims) -> None:
    """Reject a study cell with p < 2: the ratio rule compares two eigenvalues."""
    small = [p for p in dims if p < 2]
    if small:
        raise DomainError(f"ratio estimation needs p >= 2, got p = {small[0]}")


def _sample_sizes(n_grid: Sequence[int]) -> tuple:
    """``n_grid`` as a tuple of integers of at least ``MIN_N``; a repeat would run twice."""
    return _distinct((_integer_in("n", n, MIN_N) for n in n_grid), "n_grid repeats n = {}")


def _size_grid(scenario: Scenario, n_grid: Sequence[int], p_coef: Optional[float]):
    """The cells of ``scenario`` at each sample size of ``n_grid`` (``_sample_sizes``).

    p is the scenario's own, or ``round(p_coef * n)`` when ``p_coef`` is
    given (a real number).  Returns ``(n_grid, p_of_n, cells)``, the cells
    in ``_replicate``'s form.
    """
    n_grid = _sample_sizes(n_grid)
    if p_coef is not None:
        p_coef = _real_number("p_coef", p_coef)
    p_of_n = {n: scenario.p if p_coef is None else _scaled_p(p_coef, n) for n in n_grid}
    return n_grid, p_of_n, [(replace(scenario, n=n, p=p), (n, p)) for n, p in p_of_n.items()]


@_openblas.single_thread_blas
def run_table1(
    deltas: Sequence[float],
    n_grid: Sequence[int],
    p_rules: Sequence[float],
    reps: int,
    base_seed: int,
    *,
    r: int = 3,
    ar_coeffs: Sequence[float] = TABLE1_AR_COEFFS,
    noise_var: float = Scenario.noise_var,
    k0: int = Scenario.k0,
    workers: Optional[int] = None,
) -> list:
    """Frequency grid of correct factor counts over (delta, n, p-rule) cells.

    Each cell runs ``reps`` independent replications of generate-and-count
    with dimension ``p = round(rule * n)``; a cell's replication seeds are
    derived from the base seed and the cell coordinates, so any subset of
    cells can be recomputed in isolation.  A repeated delta, n or rule is
    a DomainError, since it would run its cells twice.

    Returns a list of ``(delta, n, p, p_rule, McResult)`` tuples in grid
    order.
    """
    r, n_grid = _integer_in("r", r, 1), _sample_sizes(n_grid)
    deltas = _distinct((_real_number("delta", d) for d in deltas), "deltas repeats delta = {}")
    p_rules = _distinct((_real_number("p_rule", rule) for rule in p_rules),
                        "p_rules repeats rule = {}")
    grid = [(delta, n, _scaled_p(rule, n), rule)
            for delta, n, rule in itertools.product(deltas, n_grid, p_rules)]
    _check_ratio_dims(p for _, _, p, _ in grid)
    cells = [(Scenario(n=n, p=p, r=r, deltas=(delta,) * r, ar_coeffs=ar_coeffs,
                       noise_var=noise_var, k0=k0, seed=base_seed), (_delta_code(delta), n, p))
             for delta, n, p, _ in grid]
    r_hats_by_cell = _replicate(cells, reps, workers, _ratio_count)
    return [(*coords, McResult(cell, dict(sorted(Counter(map(int, r_hats)).items()))))
            for coords, (cell, _), r_hats in zip(grid, cells, r_hats_by_cell)]


@_openblas.single_thread_blas
def eigen_error_study(
    scenario: Scenario,
    n_grid: Sequence[int],
    tracked_j: Sequence[int],
    reps: int,
    *,
    p_coef: Optional[float] = None,
    workers: Optional[int] = None,
) -> EigenErrorStudy:
    """Errors of the leading eigenvalue estimates against the oracle.

    Requires the all-ones loading scheme: with a deterministic loading
    matrix the population spectrum is available in closed form, so each
    replication contributes exact errors rather than differences between
    two estimates.  ``p_coef`` scales the dimension with n (p = coef * n);
    when omitted, the scenario's fixed p is reused across the grid.
    """
    if scenario.loading_scheme != "all-ones":
        raise DomainError(
            "eigen-error study needs the all-ones loading scheme so the population spectrum is exact"
        )
    tracked_j = _distinct((_integer_in("tracked index", j, 1) for j in tracked_j),
                          "tracked_j repeats j = {}")
    if not tracked_j:
        raise DomainError("need at least one tracked eigenvalue")
    tracked = [j - 1 for j in tracked_j]
    n_grid, p_of_n, cells = _size_grid(scenario, n_grid, p_coef)
    too_small = [p for p in p_of_n.values() if p < max(tracked_j)]
    if too_small:
        raise DomainError(f"tracked index {max(tracked_j)} exceeds dimension {too_small[0]}")
    oracle = {scn.p: population_m(_loadings(scn), scenario.ar_coeffs, scenario.k0)[1]
              for scn, _ in cells}
    spectra = _replicate(cells, reps, workers, _spectrum)
    return EigenErrorStudy(
        scenario=scenario,
        n_grid=n_grid,
        p_of_n=p_of_n,
        tracked_j=tracked_j,
        errors={n: np.vstack(rows)[:, tracked] - oracle[p][tracked]
                for (n, p), rows in zip(p_of_n.items(), spectra)},
        population={n: oracle[p][tracked] for n, p in p_of_n.items()},
    )


def _check_slope_grid(n_grid: Sequence[int]) -> None:
    """Reject a grid of fewer than three sample sizes: too few to fit a slope."""
    if len(n_grid) < 3:
        raise DomainError("need at least three grid points to fit a slope")


def fit_error_slopes(study: EigenErrorStudy, confidence_z: float = 1.96) -> list:
    """OLS slope of log median absolute error against log n, per tracked j.

    Medians tame the heavy tails of eigenvalue errors; the interval is the
    usual OLS slope interval at the given normal quantile.
    """
    _check_slope_grid(study.n_grid)
    log_n = np.log(np.asarray(study.n_grid, dtype=float))
    fits = []
    for col, j in enumerate(study.tracked_j):
        med = np.array([np.median(np.abs(study.errors[n][:, col])) for n in study.n_grid])
        if np.any(med <= 0):
            raise DomainError(f"median error for eigenvalue {j} is zero; cannot take logs")
        log_med = np.log(med)
        design = np.column_stack([np.ones_like(log_n), log_n])
        coef, *_ = np.linalg.lstsq(design, log_med, rcond=None)
        fitted = design @ coef
        dof = len(log_n) - 2
        resid_var = ((log_med - fitted) ** 2).sum() / max(dof, 1)
        slope_se = math.sqrt(resid_var / ((log_n - log_n.mean()) ** 2).sum())
        fits.append(
            SlopeFit(
                j=j,
                slope=float(coef[1]),
                ci_low=float(coef[1] - confidence_z * slope_se),
                ci_high=float(coef[1] + confidence_z * slope_se),
            )
        )
    return fits


def _column_medians(trace: np.ndarray) -> np.ndarray:
    """Median of each column over its values; NaN, with no warning, where it holds none."""
    empty = np.isnan(trace).all(axis=0)
    return np.where(empty, np.nan, np.nanmedian(np.where(empty, 0.0, trace), axis=0))


@_openblas.single_thread_blas
def ratio_trace_study(
    scenario: Scenario,
    n_grid: Sequence[int],
    reps: int,
    *,
    p_coef: Optional[float] = None,
    workers: Optional[int] = None,
) -> RatioTraceStudy:
    """Full eigenvalue-ratio sequences per replication over a size grid."""
    n_grid, p_of_n, cells = _size_grid(scenario, n_grid, p_coef)
    _check_ratio_dims(p_of_n.values())
    traces = dict(zip(n_grid, map(np.vstack, _replicate(cells, reps, workers, _ratio_trace))))
    return RatioTraceStudy(
        scenario=scenario,
        n_grid=n_grid,
        p_of_n=p_of_n,
        traces=traces,
        median_ratios={n: _column_medians(trace) for n, trace in traces.items()},
    )


@_openblas.single_thread_blas
def two_step_study(
    scenario: Scenario, reps: int, *, workers: Optional[int] = None
) -> TwoStepStudy:
    """Compare one-step and two-step factor counting replication by replication.

    Designed for scenarios mixing strong and weak factors, where the
    one-step ratio search tends to stop at the strong ones; it runs on any
    scenario.  Each replication is one ``two_step_estimate`` fit: its
    first-pass count is the one-step count, and its second pass counts the
    factors left in the deflated panel.
    """
    _check_ratio_dims([scenario.p])
    results, = _replicate([(scenario, (scenario.n, scenario.p))], reps, workers, _two_step_counts)
    reps = len(results)
    one_counts = Counter(r1 for r1, _, _ in results)
    pair_counts = Counter((r1, r2) for r1, r2, _ in results)
    hits_two = sum(r1 + r2 == scenario.r for r1, r2, _ in results)
    hits_sharp = sum((r1 + r2 if sharp else r1) == scenario.r for r1, r2, sharp in results)
    return TwoStepStudy(
        scenario=scenario, reps=reps, one_step_counts=dict(sorted(one_counts.items())),
        pair_counts=dict(sorted(pair_counts.items())), freq_one=one_counts[scenario.r] / reps,
        freq_two=hits_two / reps, freq_two_sharp=hits_sharp / reps,
    )
