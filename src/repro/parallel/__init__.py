"""Hybrid parallel runtime: transport ranks + OpenMP-style threads.

The rank runtime lives in :mod:`repro.transport` (threads, mp-shm, and
sockets backends); this package holds the fleet drivers, the
OpenMP-style thread teams and the per-process parallelism budget
(:mod:`repro.parallel.budget`).
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
from .openmp import (
    ThreadTeam,
    chunk_ranges,
    get_max_threads,
    parallel_for,
    parallel_map,
    set_max_threads,
)

__all__ = [
    "FleetJobOutput",
    "FleetMatrixError",
    "HybridConfig",
    "HybridReport",
    "ParallelBudget",
    "ThreadTeam",
    "chunk_ranges",
    "get_max_threads",
    "parallel_for",
    "parallel_map",
    "process_budget",
    "run_fsi_fleet",
    "run_selected_fleet",
    "set_max_threads",
]
