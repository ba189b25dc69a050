"""Keep a long-lived solver process's heap across jobs (glibc only).

A pool worker solves job after job, and each job
allocates and frees the same ~7-9 MB of transient arrays.  Under
glibc's default *dynamic* thresholds the arena's free top is trimmed
back to the kernel after every job, so the next job faults the same
pages in again, one minor fault per page.  Measured in a warm 1-worker
pool on a 2-core host at paper scale (N=100, L=64, c=8), a worker took
1,750-2,380 minor faults per DIAGONAL job, 2,110-2,700 per
FULL_DIAGONAL job and 3,300-3,550 per COLUMNS job, and 6.5-8 ms of
system time per DIAGONAL job; with the heap kept, 10-14, 79-80 and
625-630 faults, and under 0.5 ms of system time.

:func:`keep_heap` pins both thresholds through ``mallopt``, which the
C library is asked for through ``ctypes`` (as
:mod:`repro.parallel.budget` sets OpenBLAS's thread count).  Setting
either threshold turns glibc's dynamic adjustment off, so both are set:
the trim threshold alone would freeze the mmap threshold at its current
value and map every large array.  The price is that the process keeps
its high-water heap between jobs.

It is called only in the processes a
:class:`~repro.service.workers.WorkerPool` owns.  The service process
and library callers keep the allocator as they found it.
"""

from __future__ import annotations

import ctypes
from typing import Callable

__all__ = ["HAS_MALLOPT", "keep_heap"]

#: ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Allocations at or above this are mapped, not taken from the arena:
#: 32 MiB, glibc's largest on 64-bit, so every transient of a
#: paper-scale job stays in the arena.  It must be set with the trim
#: threshold: setting either turns glibc's dynamic thresholds off, and
#: left at its 128 KiB start this one would map (and unmap, and fault
#: in again) every large array of every job.
MMAP_THRESHOLD = 32 << 20

#: The arena's free top is given back to the kernel only above this:
#: 256 MiB, above any paper-scale job's transient.  ``mallinfo2`` after
#: each DIAGONAL job read a 14.2 MB arena with a 0.13 MB ``keepcost``
#: under the default thresholds (the top trimmed every time, 1,731-1,735
#: faults per job); with both set, a 25.5 MB arena keeping 11.7 MB, and
#: 11-14 faults per job.
TRIM_THRESHOLD = 256 << 20


def _find_mallopt() -> Callable[[int, int], int] | None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


_mallopt = _find_mallopt()

#: Whether this C library has ``mallopt``; without it :func:`keep_heap`
#: changes nothing.
HAS_MALLOPT = _mallopt is not None


def keep_heap() -> None:
    """Pin this process's ``mallopt`` thresholds so that freed heap is
    kept for the next job.  Idempotent; a no-op without ``mallopt``."""
    if _mallopt is None:
        return
    # The mmap threshold first: should it be refused, the trim threshold
    # is left alone, as setting it alone would freeze the other one.
    if _mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        _mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
