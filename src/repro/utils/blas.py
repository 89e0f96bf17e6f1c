"""Cap the thread pools of every OpenBLAS loaded in this process.

The blocked engine turns each surviving K-panel into one BLAS matmul,
so a process that runs several of them at once — the server's worker
threads, or the sweep executor's forked workers — must share the cores
with OpenBLAS's own thread pool.  ``W`` concurrent callers each using a
pool sized for every core run ``W × cores`` threads on ``cores`` cores,
and the oversubscription costs more than the extra threads buy.

OpenBLAS's thread count is process-global, so no single call site can
size it; :func:`cap_blas_threads` sets it once for the whole process to
``min(current, max(1, cores // concurrency))``.  It never raises a
count, so an explicit ``OPENBLAS_NUM_THREADS`` still wins, and it
returns the previous counts for :func:`restore_blas_threads`.

A process can map more than one OpenBLAS: NumPy's wheel ships
``libscipy_openblas64_`` (64-bit integers, symbol suffix ``64_``) and
SciPy's ships its own ``libscipy_openblas``.  Each has its own pool, so
every copy listed in ``/proc/self/maps`` is capped, not just the first.
Where no OpenBLAS is mapped (or there is no ``/proc``), every function
here is a no-op.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple

#: The process's memory map, read to find loaded OpenBLAS libraries.
MAPS_PATH = "/proc/self/maps"

#: ``(set, get)`` thread-count symbol pairs, tried in order per library.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class _Library(NamedTuple):
    name: str  # basename of the shared object
    set_threads: "ctypes._CFuncPtr"
    get_threads: "ctypes._CFuncPtr"


def _mapped_openblas_paths() -> "list[str]":
    """Paths of the OpenBLAS shared objects mapped, in map order."""
    try:
        with open(MAPS_PATH) as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: "list[str]" = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue  # anonymous mapping
        path = fields[5].strip()
        name = os.path.basename(path)
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _openblas_libraries() -> "list[_Library]":
    libraries = []
    for path in _mapped_openblas_paths():
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(handle, set_name) and hasattr(handle, get_name):
                setter = getattr(handle, set_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter = getattr(handle, get_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                libraries.append(
                    _Library(os.path.basename(path), setter, getter)
                )
                break
    return libraries


def _core_count() -> int:
    return len(os.sched_getaffinity(0))


def blas_thread_counts() -> "dict[str, int]":
    """Current thread count per loaded OpenBLAS, by library basename."""
    return {lib.name: lib.get_threads() for lib in _openblas_libraries()}


def cap_blas_threads(concurrency: int) -> "dict[str, int]":
    """Cap every loaded OpenBLAS at ``max(1, cores // concurrency)``.

    Args:
        concurrency: how many BLAS callers will run at once.

    Returns:
        The counts before the cap, by library basename, for
        :func:`restore_blas_threads`; ``{}`` when no OpenBLAS is mapped.
    """
    target = max(1, _core_count() // concurrency)
    previous = {}
    for lib in _openblas_libraries():
        current = lib.get_threads()
        previous[lib.name] = current
        if target < current:
            lib.set_threads(target)
    return previous


def restore_blas_threads(previous: "dict[str, int]") -> None:
    """Set each library named in ``previous`` back to its count."""
    for lib in _openblas_libraries():
        if lib.name in previous:
            lib.set_threads(previous[lib.name])

