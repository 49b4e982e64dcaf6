"""numpy's bundled OpenBLAS, reached through ctypes.

numpy wheels ship an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix.  This module
finds that library once, on first use, and owns the symbol names the
package calls:

- ``threads_api`` reaches the process-wide BLAS thread count, and
  ``single_thread_blas`` holds it at one thread: the Monte Carlo studies and
  every CLI command run under that hold, because OpenBLAS's thread count
  changes the bits of large matrix products and factorizations;
- ``eigh`` solves a symmetric eigenproblem with ``dsyevd``, the LAPACK
  routine behind ``np.linalg.eigh`` and ``eigvalsh``.  numpy's ``linalg``
  keeps the interpreter lock during a call on a single matrix; a ctypes
  call releases it, so replications in a thread pool overlap their
  eigensolves.

Where the library or a symbol is missing (numpy 1.x, a numpy built on MKL
or Accelerate), ``threads_api`` returns None, the hold leaves the thread
count alone, and ``eigh`` calls numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Optional

import numpy as np

_INT = ctypes.c_int64                     # ILP64: every LAPACK integer is 64-bit
_INT_P = ctypes.POINTER(_INT)
_ADDRESS = ctypes.c_void_p                # array arguments, passed as integer addresses
_UPLO = b"L"                              # np.linalg.eigh's default triangle
_ITEM = 8                                 # bytes per float64 and per LAPACK integer


@functools.cache
def _library():
    """The first loadable bundled OpenBLAS, or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def _symbol(name: str, restype, argtypes):
    lib = _library()
    func = None if lib is None else getattr(lib, name, None)
    if func is not None:
        func.restype, func.argtypes = restype, argtypes
    return func


@functools.cache
def threads_api():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    get = _symbol("scipy_openblas_get_num_threads64_", ctypes.c_int, [])
    set_ = _symbol("scipy_openblas_set_num_threads64_", None, [ctypes.c_int])
    return None if get is None or set_ is None else (get, set_)


class _SingleThreadBlas(contextlib.ContextDecorator):
    """Holds numpy's OpenBLAS at one thread while any holder runs.

    The thread count is process-wide, so every holder, in any thread and at
    any nesting depth, shares one hold: the first to enter saves the count
    and sets one thread, and the last to leave restores the saved count.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: Optional[int] = None

    def __enter__(self):
        with self._lock:
            api = threads_api()
            if self._holders == 0 and api is not None:
                self._saved = api[0]()
                api[1](1)
            self._holders += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._saved is not None:
                threads_api()[1](self._saved)
                self._saved = None


single_thread_blas = _SingleThreadBlas()


@functools.cache
def _dsyevd():
    """``dsyevd`` of numpy's bundled OpenBLAS, or None.

    Arguments: jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info,
    then the hidden lengths of the two character arguments.
    """
    return _symbol("scipy_dsyevd_64_", None, [
        ctypes.c_char_p, ctypes.c_char_p, _INT_P, _ADDRESS, _INT_P, _ADDRESS,
        _ADDRESS, _INT_P, _ADDRESS, _INT_P, _INT_P, ctypes.c_size_t, ctypes.c_size_t,
    ])


@functools.lru_cache(maxsize=256)
def _workspace(jobz: bytes, n: int):
    """``(lwork, liwork)`` from LAPACK's workspace query for ``dsyevd``.

    The query (lwork = liwork = -1) reads only jobz, uplo and n, and leaves
    the matrix untouched, so its answer is kept per (jobz, n).  The sizes
    pick LAPACK's blocked path and so decide the bits.

    Raises
    ------
    np.linalg.LinAlgError
        If LAPACK rejects the arguments.
    """
    unused, lwork, liwork = ctypes.c_double(0.0), ctypes.c_double(0.0), _INT(0)
    query, info = _INT(-1), _INT(0)
    _dsyevd()(jobz, _UPLO, ctypes.byref(_INT(n)), ctypes.byref(unused), ctypes.byref(_INT(max(n, 1))),
              ctypes.byref(unused), ctypes.byref(lwork), ctypes.byref(query), ctypes.byref(liwork),
              ctypes.byref(query), ctypes.byref(info), 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dsyevd workspace query failed with info = {info.value}")
    return int(lwork.value), liwork.value


def eigh(m: np.ndarray, vectors: bool):
    """Ascending eigenvalues of the symmetric matrix ``m`` from its lower triangle.

    Returns ``(values, vectors)`` with the bits ``np.linalg.eigh(m)`` gives,
    or ``(values, None)`` with those of ``np.linalg.eigvalsh(m)`` when
    ``vectors`` is false.  The call is numpy's: the workspace sizes of
    LAPACK's query, and the matrix and eigenvalues in one block and the
    float and integer workspaces in another, as numpy allocates them.
    Eigenvectors come back C-contiguous, as numpy's do.

    Raises
    ------
    np.linalg.LinAlgError
        If LAPACK reports that the eigenvalues did not converge.
    """
    dsyevd = _dsyevd()
    if dsyevd is None:
        return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise np.linalg.LinAlgError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    jobz = b"V" if vectors else b"N"
    lwork, liwork = _workspace(jobz, n)
    block = np.empty(n * n + n)                       # A (overwritten by the eigenvectors), then W
    a = block[: n * n].reshape((n, n), order="F")
    a[...] = m
    workspace = np.empty(lwork + liwork)              # WORK, then IWORK as 8-byte integers
    a_at, work_at, info = block.ctypes.data, workspace.ctypes.data, _INT(0)
    dsyevd(jobz, _UPLO, ctypes.byref(_INT(n)), a_at, ctypes.byref(_INT(max(n, 1))),
           a_at + _ITEM * n * n, work_at, ctypes.byref(_INT(lwork)), work_at + _ITEM * lwork,
           ctypes.byref(_INT(liwork)), ctypes.byref(info), 1, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return block[n * n:].copy(), (np.ascontiguousarray(a) if vectors else None)
