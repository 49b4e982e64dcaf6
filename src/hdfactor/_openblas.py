"""numpy's bundled OpenBLAS thread count, reached through ctypes.

numpy wheels ship an ILP64 OpenBLAS (``numpy.libs/libscipy_openblas64_*``)
whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix.  This module
finds that library once, on first use.  ``threads_api`` reaches the
process-wide BLAS thread count, and ``single_thread_blas`` holds it at one
thread: the Monte Carlo studies and every CLI command run under that hold,
because OpenBLAS's thread count changes the bits of large matrix products
and factorizations.

Where the library or a symbol is missing (numpy 1.x, a numpy built on MKL
or Accelerate), ``threads_api`` returns None and the hold leaves the thread
count alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Optional

import numpy as np


@functools.cache
def threads_api():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None.

    The library is the first loadable ``libscipy_openblas*`` in ``numpy.libs``.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is None or set_ is None:
            return None
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


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
