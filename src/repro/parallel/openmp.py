"""OpenMP-style fine-grained threading layer.

The paper parallelises the CLS cluster products, the WRP seeds and the
measurement accumulation with OpenMP worker threads inside each MPI
process (Sec. III-B).  This module provides the equivalent construct
for the Python reproduction:

* :func:`parallel_for` — an ``!$omp parallel do`` stand-in over an index
  range with static or dynamic scheduling, backed by a per-call thread
  pool.  NumPy's BLAS releases the GIL, so gemm-rich loop bodies do run
  concurrently;
* :class:`ThreadTeam` — a reusable team when many loops share workers;
* :func:`get_max_threads` / :func:`set_max_threads` — the default team
  size: the process's :class:`~repro.parallel.budget.ParallelBudget`
  team (``REPRO_NUM_THREADS``, else the cores left per rank) unless set
  explicitly.  ``OMP_NUM_THREADS`` belongs to the BLAS runtime and does
  not size teams.

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
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..telemetry import runtime as _telemetry
from .budget import process_budget

__all__ = [
    "parallel_for",
    "parallel_map",
    "thread_local_reduce",
    "ThreadTeam",
    "get_max_threads",
    "set_max_threads",
    "chunk_ranges",
]

T = TypeVar("T")

_max_threads_lock = threading.Lock()
_max_threads: int | None = None


def get_max_threads() -> int:
    """Current default team size: :func:`set_max_threads`, else the
    process's :class:`~repro.parallel.budget.ParallelBudget` team."""
    with _max_threads_lock:
        if _max_threads is not None:
            return _max_threads
    return process_budget().team


def set_max_threads(n: int) -> None:
    """Set the default team size for subsequent parallel regions."""
    global _max_threads
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    with _max_threads_lock:
        _max_threads = n


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
    schedule: str = "static",
) -> None:
    """Run ``body(i)`` for ``i in range(n)``, distributed over a team.

    Parameters
    ----------
    body:
        The loop body; must be safe to run concurrently for distinct
        ``i`` (the CLS clusters and WRP seeds are data-independent,
        which is exactly why the paper threads them).
    n:
        Iteration count.
    num_threads:
        Team size; defaults to :func:`get_max_threads`.
    schedule:
        ``"static"`` — contiguous chunks, one per worker (OpenMP
        default); ``"dynamic"`` — workers pull single iterations from a
        shared counter (better for irregular bodies).
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if n == 0:
        return
    nt = num_threads if num_threads is not None else get_max_threads()
    if nt < 1:
        raise ValueError(f"num_threads must be >= 1, got {nt}")
    if schedule == "static":
        chunks = chunk_ranges(n, nt)

        def make_task(rng: range) -> Callable[[], None]:
            def task() -> None:
                for i in rng:
                    body(i)

            return task

        _run_team([make_task(r) for r in chunks], nt)
    elif schedule == "dynamic":
        counter = iter(range(n))
        lock = threading.Lock()

        def task() -> None:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                body(i)

        _run_team([task for _ in range(min(nt, n))], nt)
    else:
        raise ValueError(f"unknown schedule {schedule!r} (use static|dynamic)")


def parallel_map(
    fn: Callable[[T], Any],
    items: Iterable[T],
    num_threads: int | None = None,
) -> list[Any]:
    """Map ``fn`` over ``items`` on a team; results in input order."""
    items = list(items)
    results: list[Any] = [None] * len(items)

    def body(i: int) -> None:
        results[i] = fn(items[i])

    parallel_for(body, len(items), num_threads=num_threads)
    return results


@dataclass
class ThreadTeam:
    """A named, reusable thread-count configuration.

    Mirrors selecting "the number of OpenMP threads per MPI process"
    before launching the application (Sec. III-A): the hybrid driver
    constructs one team per simulated MPI rank.
    """

    num_threads: int = field(default_factory=get_max_threads)

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError(
                f"num_threads must be >= 1, got {self.num_threads}"
            )

    def parallel_for(
        self, body: Callable[[int], None], n: int, schedule: str = "static"
    ) -> None:
        parallel_for(body, n, num_threads=self.num_threads, schedule=schedule)

    def map(self, fn: Callable[[T], Any], items: Iterable[T]) -> list[Any]:
        return parallel_map(fn, items, num_threads=self.num_threads)


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
