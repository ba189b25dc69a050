"""One parallelism budget per process.

Three parallel layers can nest: worker processes
(:class:`~repro.service.workers.WorkerPool`, one rank each),
:func:`~repro.parallel.openmp.parallel_for` thread teams (the DQMC
measurement reductions and the block-tridiagonal solver; a
Green's-function solve runs on its calling thread, and a service
worker runs no team), and the threads of the BLAS library under every
``gemm`` and LAPACK call.  Their product is what the host has to run,
so they are resolved together, once, into one :class:`ParallelBudget`:

* ``cores`` — the CPUs this process may run on (its affinity mask);
* ``processes`` — service worker processes (each solves inline);
* ``team`` — the default ``parallel_for`` team size: ``REPRO_NUM_THREADS``
  when set, else the cores left per process, ``cores // processes``;
  the service fixes it at 1;
* ``blas`` — BLAS threads per caller: **1**.  The repo's parallelism
  lives in the layers above, which split work at the granularity of
  whole jobs and measurements.  A BLAS call at the paper's N = 100 is
  too small to split: on a 2-core host a second BLAS thread makes
  paper-scale DIAGONAL ``fsi`` 5x slower (225 vs 43 ms), and under a
  team it oversubscribes the cores.  An
  explicit ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
  ``MKL_NUM_THREADS`` (first one set wins) overrides the rule;
  ``source`` then reads ``"env"``.

:meth:`ParallelBudget.apply` sets the thread count of every loaded
OpenBLAS through its own ``ctypes`` setter — numpy and scipy each bundle
a separate copy, and either one running threaded is enough to
oversubscribe.  The budget is applied in the service process before its
pool exists, in every pool worker (including recycled ones), at the
start of every solve (:func:`~repro.core.cls.cls`) and before any
thread team starts (:func:`process_budget`).
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "BLAS_VARS",
    "ParallelBudget",
    "blas_threads",
    "process_budget",
]

#: Thread-count variables of the BLAS/OpenMP runtimes, in precedence order.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The repo's own team-size variable.
TEAM_VAR = "REPRO_NUM_THREADS"

# Symbol names differ between the wheels' bundled builds (prefixed,
# with and without the 64-bit-integer suffix) and a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)

# The budget applied in this process, keyed by pid: a forked child
# inherits the parent's copy but must apply its own.
_applied: tuple[int, ParallelBudget] | None = None
_lock = threading.RLock()


def _fresh_lock() -> None:
    # A fork taken while another thread held the lock would leave the
    # child's copy locked forever; pool workers are forked.
    global _lock
    _lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lock)


def _positive_int(value: str | None) -> int | None:
    """``value`` as a thread count, or ``None`` when unset or not >= 1."""
    if value is None or not value.strip().isdigit():
        return None
    n = int(value)
    return n if n >= 1 else None


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelBudget:
    """The resolved thread counts of the parallel layers."""

    cores: int
    processes: int = 1
    team: int = 1
    blas: int = 1
    #: ``"env"`` when a BLAS variable set ``blas``, else ``"budget"``.
    source: str = "budget"

    @classmethod
    def resolve(
        cls,
        processes: int = 1,
        team: int | None = None,
        environ: Mapping[str, str] | None = None,
    ) -> ParallelBudget:
        """The budget for ``processes`` worker processes on this host.

        ``team`` fixes the team size (the service's worker pool passes
        1); ``None`` takes ``REPRO_NUM_THREADS``, else the cores left
        per process.  ``environ`` defaults to ``os.environ``.
        """
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        env = os.environ if environ is None else environ
        cores = _cores()
        blas, source = 1, "budget"
        for var in BLAS_VARS:
            n = _positive_int(env.get(var))
            if n is not None:
                blas, source = n, "env"
                break
        if team is None:
            team = _positive_int(env.get(TEAM_VAR)) or max(1, cores // processes)
        if team < 1:
            raise ValueError(f"team must be >= 1, got {team}")
        return cls(cores, processes, team, blas, source)

    def apply(self) -> ParallelBudget:
        """Make this the process's budget and set every OpenBLAS to it.

        Idempotent: re-applying the budget already in force is a no-op.
        Returns ``self``.
        """
        global _applied
        with _lock:
            if _applied == (os.getpid(), self):
                return self
            for _, lib in _openblas_libraries():
                setter = _symbol(lib, _SETTERS)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(self.blas)
            _applied = (os.getpid(), self)
        return self

    def as_dict(self) -> dict[str, int | str]:
        return dataclasses.asdict(self)


def process_budget() -> ParallelBudget:
    """The budget in force in this process.

    The first call in a process that has applied none resolves the
    default budget (one process) and applies it.
    """
    with _lock:
        if _applied is not None and _applied[0] == os.getpid():
            return _applied[1]
        return ParallelBudget.resolve().apply()


def _openblas_libraries() -> list[tuple[str, ctypes.CDLL]]:
    """Every OpenBLAS mapped into this process.

    numpy's and scipy's are separate libraries, and scipy's is only
    mapped once ``scipy.linalg`` is imported, so both are imported
    first: a copy loaded later would start at its own default.
    """
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    try:
        with open("/proc/self/maps") as fh:
            paths = {
                line.split()[-1] for line in fh if "openblas" in line.lower()
            }
    except OSError:
        return []
    return [
        (os.path.basename(path), ctypes.CDLL(path))
        for path in sorted(paths)
        if path.startswith("/") and ".so" in path
    ]


def _symbol(lib: ctypes.CDLL, names: tuple[str, ...]):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, read through its own getter."""
    out = {}
    for name, lib in _openblas_libraries():
        getter = _symbol(lib, _GETTERS)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            out[name] = int(getter())
    return out
