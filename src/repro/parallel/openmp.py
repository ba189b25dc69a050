"""OpenMP-style fine-grained threading layer.

The paper parallelises the CLS cluster products, the WRP seeds and the
measurement accumulation with OpenMP worker threads inside each MPI
process (Sec. III-B).  Here the Green's-function solver runs on the
calling thread: at paper scale on a 2-core host a 2-thread team was no
faster than one thread for CLS (4.4 vs 4.1 ms), DIAGONAL ``fsi``
(22.4 vs 19.8 ms) or an 8-shift spectral sweep (45.4 vs 44.3 ms), in
6 alternating rounds at 1 BLAS thread.  The teams left are the DQMC
measurement reductions and the block-tridiagonal solver:

* :func:`parallel_for` — an ``!$omp parallel do`` stand-in over an index
  range with static scheduling, backed by a per-call thread pool.
  NumPy's BLAS releases the GIL, so gemm-rich loop bodies do run
  concurrently;
* :func:`thread_local_reduce` — the Alg. 3 per-thread accumulators;
* :func:`get_max_threads` — the default team size: the process's
  :class:`~repro.parallel.budget.ParallelBudget` team
  (``REPRO_NUM_THREADS``, else the cores left per rank).
  ``OMP_NUM_THREADS`` belongs to the BLAS runtime and does not size
  teams.

Every team of more than one thread starts under the process's budget,
which runs BLAS single-threaded: the team is the parallel layer, and
threaded OpenBLAS called from inside one oversubscribes the cores.

Team threads adopt the forking thread's telemetry — its
:class:`~repro.telemetry.FlopTracer` stack, stage frame and span
context — through :func:`repro.telemetry.capture_thread`, and fold
their flops into the forking stage before :func:`_run_team` returns.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from ..telemetry import runtime as _telemetry
from .budget import process_budget

__all__ = [
    "parallel_for",
    "thread_local_reduce",
    "get_max_threads",
    "chunk_ranges",
]

T = TypeVar("T")


def get_max_threads() -> int:
    """Default team size: the process's
    :class:`~repro.parallel.budget.ParallelBudget` team."""
    return process_budget().team


def chunk_ranges(n: int, parts: int) -> list[range]:
    """Split ``range(n)`` into ``parts`` near-equal contiguous chunks.

    Mirrors OpenMP static scheduling: chunk sizes differ by at most one,
    larger chunks first.  Empty chunks are dropped.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    base, rem = divmod(n, parts)
    out: list[range] = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        if size:
            out.append(range(start, start + size))
        start += size
    return out


def _run_team(
    tasks: Sequence[Callable[[], Any]], num_threads: int
) -> list[Any]:
    """Execute thunks on a transient team, propagating telemetry."""
    if num_threads == 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    # No team starts before the process's budget (one BLAS thread per
    # team member) is in force.
    process_budget()
    adopt = _telemetry.capture_thread()

    def wrapped(task: Callable[[], Any]) -> Any:
        with adopt():
            return task()

    with ThreadPoolExecutor(max_workers=min(num_threads, len(tasks))) as ex:
        futures = [ex.submit(wrapped, t) for t in tasks]
        return [f.result() for f in futures]


def parallel_for(
    body: Callable[[int], None],
    n: int,
    num_threads: int | None = None,
) -> None:
    """Run ``body(i)`` for ``i in range(n)``, distributed over a team.

    Parameters
    ----------
    body:
        The loop body; must be safe to run concurrently for distinct
        ``i``.
    n:
        Iteration count.
    num_threads:
        Team size; defaults to :func:`get_max_threads`.  Each worker
        runs one contiguous chunk (OpenMP static scheduling).
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if n == 0:
        return
    nt = num_threads if num_threads is not None else get_max_threads()
    if nt < 1:
        raise ValueError(f"num_threads must be >= 1, got {nt}")

    def make_task(rng: range) -> Callable[[], None]:
        def task() -> None:
            for i in rng:
                body(i)

        return task

    _run_team([make_task(r) for r in chunk_ranges(n, nt)], nt)


def thread_local_reduce(
    body: Callable[[int, T], None],
    n: int,
    make_local: Callable[[], T],
    merge: Callable[[T, T], T],
    num_threads: int | None = None,
) -> T | None:
    """Parallel loop with per-thread accumulators merged at the join.

    The Alg. 3 measurement idiom ("create local measurements for each
    thread ... to overcome the concurrent writing issue") as a reusable
    construct: each worker lazily creates one local accumulator via
    ``make_local``, ``body(i, local)`` accumulates into it, and the
    locals are combined with ``merge`` after the join.  Returns ``None``
    when ``n == 0``.
    """
    locals_: dict[int, T] = {}
    guard = threading.Lock()

    def run(i: int) -> None:
        tid = threading.get_ident()
        local = locals_.get(tid)
        if local is None:
            local = make_local()
            with guard:
                locals_[tid] = local
        body(i, local)

    parallel_for(run, n, num_threads=num_threads)
    result: T | None = None
    for local in locals_.values():
        result = local if result is None else merge(result, local)
    return result
