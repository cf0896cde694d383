"""The thread count of the OpenBLAS that numpy calls, set for a block of work.

numpy has no call that sets its BLAS threads, so the OpenBLAS that numpy's
wheels ship is found next to the numpy package (numpy.libs on Linux and
Windows, numpy/.dylibs on macOS) and driven through its own
get/set_num_threads symbols.  Where numpy links another BLAS, blas_threads
changes nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np


@cache
def _openblas():
    """(get_num_threads, set_num_threads) of numpy's OpenBLAS, or None."""
    package = Path(np.__file__).resolve().parent
    for path in sorted([*(package.parent / "numpy.libs").glob("*openblas*"),
                        *(package / ".dylibs").glob("*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype = ctypes.c_int
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


@contextmanager
def blas_threads(count: int):
    """Run the block on `count` threads of numpy's OpenBLAS, then restore
    the thread count it had."""
    calls = _openblas()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)
