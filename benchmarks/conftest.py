"""Shared fixtures for the wall-clock benchmarks.

Benchmark sizes are scaled down from paper scale so the whole
``pytest benchmarks/ --benchmark-only`` run finishes in minutes on a
laptop while still exercising every code path with BLAS-dominated
block sizes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import BENCH_MEDIUM, BENCH_SMALL, make_hubbard
from repro.parallel.budget import process_budget


@pytest.fixture(scope="session", autouse=True)
def parallel_budget():
    """Time everything at the BLAS thread count the service runs."""
    return process_budget()


@pytest.fixture(scope="session")
def small_problem():
    """(N, L, c) = (16, 24, 4) Hubbard matrix + model + field."""
    return make_hubbard(BENCH_SMALL, seed=1)


@pytest.fixture(scope="session")
def medium_problem():
    """(N, L, c) = (36, 40, 8) Hubbard matrix + model + field."""
    return make_hubbard(BENCH_MEDIUM, seed=1)


@pytest.fixture(scope="session")
def large_blocks_problem():
    """Fewer, larger blocks (N=96, L=12): BLAS-bound regime."""
    from repro.core.pcyclic import random_pcyclic

    return random_pcyclic(12, 96, np.random.default_rng(2), scale=0.6)
