"""Thread policy: numpy's OpenBLAS runs on one thread, and one helper thread runs
the second half of each chunk's conv stack (see ``model/reference.py``).

Importing this module pins OpenBLAS to one thread, through the
``scipy_openblas_set_num_threads64_`` symbol of the library numpy's wheel
bundles in ``numpy.libs``. With one BLAS thread every matmul sums in the same
order whatever ``OPENBLAS_NUM_THREADS`` says, so outputs do not depend on the
environment, and no BLAS thread spins on the second core while the caller runs
non-BLAS numpy code. If the library or the symbol is missing (numpy built
against another BLAS), one line on stderr says so and BLAS keeps its own
setting.

The helper is one module-level thread. ``in_parallel`` hands it work under the
caller's ``contextvars`` context, so numpy's ``errstate`` set by the caller
applies there too. A forked child re-pins BLAS and gets a helper of its own,
since the parent's thread does not exist in the child.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

_A = TypeVar("_A")
_B = TypeVar("_B")


def _load_openblas() -> ctypes.CDLL:
    """numpy's bundled OpenBLAS. It is already loaded, so this binds that same copy."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not libs:
        raise OSError("no libscipy_openblas64_*.so in numpy.libs")
    return ctypes.CDLL(str(libs[0]))


def _bind_openblas() -> tuple[Callable, Callable] | None:
    """OpenBLAS's (set, get) thread-count functions, or None after one line on stderr."""
    try:
        lib = _load_openblas()
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError) as exc:
        print(
            f"ttabench: cannot pin numpy's OpenBLAS to one thread ({exc}); "
            "results may depend on the BLAS thread count",
            file=sys.stderr,
        )
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


_OPENBLAS = _bind_openblas()


def _pin_blas() -> None:
    if _OPENBLAS is not None:
        _OPENBLAS[0](1)


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS now uses, or None when it cannot be read."""
    return _OPENBLAS[1]() if _OPENBLAS is not None else None


def _new_helper() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="ttabench-span")


_helper = _new_helper()


def in_parallel(first: Callable[[], _A], second: Callable[[], _B]) -> tuple[_A, _B]:
    """Run ``second`` on the helper thread while ``first`` runs here; both results.

    Returns only once both have finished, also when ``first`` raises, so no
    helper work outlives the call.
    """
    future = _helper.submit(contextvars.copy_context().run, second)
    try:
        a = first()
    finally:
        b = future.result()
    return a, b


def _after_fork_in_child() -> None:
    global _helper
    _helper = _new_helper()
    _pin_blas()


_pin_blas()
os.register_at_fork(after_in_child=_after_fork_in_child)
