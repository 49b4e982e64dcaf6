"""Property tests over random shapes, derandomized so every run draws the same cases."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from hdfactor import _openblas, cli, generate, m_eigenvalues, simulation, sym_eigen
from helpers import assert_second_pass_matches_dense_reference, table1_scenario

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


# ---------------------------------------------------------------- pooled eigensolver

MATRIX_KINDS = ("general", "zero", "diagonal", "rank-deficient", "repeated")


def _symmetric(size, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((size, size))
    if kind == "diagonal":
        return np.diag(rng.standard_normal(size))
    if kind == "rank-deficient":
        x = rng.standard_normal((size, max(1, size // 3)))
        return x @ x.T
    if kind == "repeated":
        q, _ = np.linalg.qr(rng.standard_normal((size, size)))
        m = (q * np.repeat(rng.standard_normal(size), 2)[:size]) @ q.T
        return (m + m.T) / 2
    x = rng.standard_normal((size, size))
    return x + x.T


def _numpy_eigh(m, vectors):
    return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)


def _same_bytes(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].flags.c_contiguous
        assert got[1].tobytes() == want[1].tobytes()


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(
    size=st.integers(1, 64),
    kind=st.sampled_from(MATRIX_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_solver_matches_numpy_bit_for_bit(size, kind, seed):
    m = _symmetric(size, kind, seed)
    for blas in (contextlib.nullcontext(), simulation._single_thread_blas):
        with blas:
            for vectors in (True, False):
                want = _numpy_eigh(m, vectors)
                _same_bytes(_openblas.eigh(m, vectors), want)
                with mock.patch.object(_openblas, "_dsyevd", lambda: None):
                    _same_bytes(_openblas.eigh(m, vectors), want)


def test_solver_reports_non_convergence_like_numpy():
    nan = np.full((4, 4), np.nan)
    with pytest.raises(np.linalg.LinAlgError) as fast:
        sym_eigen(nan)
    with mock.patch.object(_openblas, "_dsyevd", lambda: None):
        with pytest.raises(np.linalg.LinAlgError) as fallback:
            sym_eigen(nan)
    assert str(fast.value) == str(fallback.value) == "Eigenvalues did not converge"


@pytest.mark.skipif(_openblas._library() is None, reason="numpy's bundled OpenBLAS was not found")
def test_solver_fast_path_is_active():
    def numpy_solver(*args, **kwargs):
        raise AssertionError("np.linalg solved the pooled eigenproblem")

    m = _symmetric(30, "general", 7)
    with mock.patch.object(np.linalg, "eigh", numpy_solver), \
            mock.patch.object(np.linalg, "eigvalsh", numpy_solver):
        sym_eigen(m)
        m_eigenvalues(generate(table1_scenario(60, 20, seed=3))[0].values, 1)


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
