"""Hybrid parallel runtime: transport ranks + OpenMP-style threads.

The rank runtime lives in :mod:`repro.transport` (threads and mp-shm
backends); this package holds the fleet drivers, the
OpenMP-style thread teams of the DQMC measurements and the
block-tridiagonal solver, and the per-process parallelism budget
(:mod:`repro.parallel.budget`).  Each Green's-function solve runs on
its calling thread.
"""

from .budget import ParallelBudget, process_budget
from .hybrid import (
    FleetJobOutput,
    FleetMatrixError,
    HybridConfig,
    HybridReport,
    run_fsi_fleet,
    run_selected_fleet,
)
from .openmp import chunk_ranges, get_max_threads, parallel_for

__all__ = [
    "FleetJobOutput",
    "FleetMatrixError",
    "HybridConfig",
    "HybridReport",
    "ParallelBudget",
    "chunk_ranges",
    "get_max_threads",
    "parallel_for",
    "process_budget",
    "run_fsi_fleet",
    "run_selected_fleet",
]
