"""BLAS thread caps for sweeps: one thread per trial, restored after.

numpy and scipy each bundle an OpenBLAS, and each copy starts one
thread per core.  A sweep's trials are small GEMMs: a second BLAS
thread buys a trial nothing, and in a worker pool it competes with the
other workers for the same cores.  :func:`one_blas_thread` caps every
copy mapped into the process at one thread for the length of a block
and restores the caller's counts on every exit.  A sweep forks its pool
workers inside that block, so they inherit the count of one and call
no setter: in a forked child OpenBLAS's thread pool is down, and its
setter would start it again (one idle helper thread per copy).

The copies are found once per process, from the shared objects named in
``/proc/self/maps`` that export an OpenBLAS thread getter and setter
(``scipy_openblas_set_num_threads64_`` in numpy's ILP64 build,
``scipy_openblas_set_num_threads`` in scipy's).  A copy loaded after
that first look is not capped; the experiments load both before their
first sweep.  Where no copy is found (no ``/proc``, another BLAS) the
helpers change nothing and report ``None``.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Thread getter/setter symbol pairs, in the order they are tried.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class BlasLibrary:
    """One OpenBLAS copy and its thread-count entry points."""

    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _mapped_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="replace") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    return sorted({row[5].strip() for row in fields
                   if len(row) == 6 and "openblas" in row[5].lower()})


@functools.lru_cache(maxsize=None)
def blas_libraries() -> tuple[BlasLibrary, ...]:
    """The OpenBLAS copies with a thread setter, found once per process."""
    found = []
    for path in _mapped_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for getter, setter in _SYMBOLS:
            if hasattr(library, getter) and hasattr(library, setter):
                get_threads = getattr(library, getter)
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                set_threads = getattr(library, setter)
                set_threads.restype = None
                set_threads.argtypes = [ctypes.c_int]
                found.append(BlasLibrary(path, get_threads, set_threads))
                break
    return tuple(found)


@contextmanager
def one_blas_thread() -> Iterator[int | None]:
    """Run the block with every copy on one thread.

    Yields the thread count in effect, ``1``, or ``None`` where no copy
    has a setter (then nothing changes).  Each copy gets its own count
    back on every exit, exceptions included.  Where every copy already
    runs one thread, as in a process forked inside this block, no
    setter is called, so there is nothing to restore.
    """
    libraries = blas_libraries()
    if not libraries:
        yield None
        return
    saved = [library.get_threads() for library in libraries]
    if saved == [1] * len(libraries):
        yield 1
        return
    for library in libraries:
        library.set_threads(1)
    try:
        yield 1
    finally:
        for library, threads in zip(libraries, saved):
            library.set_threads(threads)


__all__ = [
    "BlasLibrary",
    "blas_libraries",
    "one_blas_thread",
]
