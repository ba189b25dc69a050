"""Process-based execution of Green's-function jobs.

NumPy's BLAS releases the GIL, but the surrounding Python (matrix
assembly, block bookkeeping, wrapping loops) does not — a process pool
is the first layer of this codebase that escapes it entirely.  The pool
wraps :class:`concurrent.futures.ProcessPoolExecutor` with the three
behaviours a serving layer cannot live without:

* **per-batch timeouts** — a wedged worker surfaces as a typed
  :class:`~repro.service.errors.JobTimeoutError` instead of a hang, and
  the pool is recycled to reclaim the stuck process;
* **bounded retry with exponential backoff** — a crashed worker
  (``BrokenProcessPool``: OOM-killed child, segfaulted BLAS, ...)
  triggers pool recycling and resubmission up to ``max_retries`` times
  before the failure is reported as
  :class:`~repro.service.errors.WorkerCrashError`;
* **graceful shutdown** — in-flight work completes before the pool is
  torn down unless cancellation is requested.

Worker-side entry points (:func:`execute_job`, :func:`execute_batch`)
are module-level functions of picklable arguments.  Each runs under a
:class:`~repro.perf.tracer.FlopTracer` and returns the per-stage flop
summary with the blocks, so the service can aggregate CLS/BSOFI/WRP
rates without re-tracing.  Batches of more than one compatible job run
as a SimMPI fleet (:func:`repro.parallel.hybrid.run_selected_fleet`) —
the same Alg. 3 machinery the offline driver uses, now inside one
worker process.
"""

from __future__ import annotations

import inspect
import itertools
import os
import random
import threading
import time
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    TimeoutError as _FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Sequence

from ..parallel.budget import ParallelBudget
from ..perf.tracer import FlopTracer
from ..resilience import chaos as _chaos
from ..resilience.chaos import FaultKind, FaultPlan
from ..resilience.guards import GuardConfig
from ..telemetry import runtime as _telemetry
from . import handoff
from .errors import JobTimeoutError, ServiceClosedError, WorkerCrashError
from .job import GreensJob, JobResult

__all__ = ["execute_job", "execute_batch", "chaos_batch_task", "WorkerPool"]


def execute_job(
    job: GreensJob,
    num_threads: int | None = None,
    trace_ctx: dict | None = None,
    guards: GuardConfig | None = None,
    pdiv_partitions: int = 0,
    transport: str | None = None,
) -> JobResult:
    """Rebuild the model + field and run one traced FSI (worker side).

    ``trace_ctx`` is a serialized telemetry span context from the
    scheduler; when present, the worker's spans are recorded and shipped
    back in ``JobResult.spans`` so the caller can stitch one trace.
    With ``guards`` the solve runs through
    :func:`~repro.core.fsi.fsi_resilient` (health checks + the fallback
    ladder); the serving rung is reported on ``JobResult.rung``.  With
    ``pdiv_partitions >= 2`` (and no guards — the fallback ladder is a
    serial-path control flow) the solve routes through
    :func:`~repro.core.pdiv.fsi_distributed` on the named ``transport``
    backend, reported as rung ``pdiv(P)``.

    Spectral jobs (``job.spectral`` set) run a factor-once
    :class:`~repro.spectral.resolvent.ResolventFactor` sweep over the
    job's omega-grid instead of an equal-time FSI — guards, when given,
    ride along as the per-shift fallback ladder — and report rung
    ``spectral(n_omega)`` with blocks stacked ``(n_omega, N, N)``.
    """
    # Worker-side imports keep module load light.
    from ..core.fsi import fsi, fsi_resilient

    model = job.spec.build_model()
    pc = model.build_matrix(job.field(), job.spec.sigma)
    with _telemetry.activate_remote(trace_ctx) as local_collector:
        with _telemetry.span(
            "worker.job", fingerprint=job.fingerprint[:12],
            workload=job.workload,
        ):
            with _chaos.job_key(job.fingerprint):
                with FlopTracer() as tracer:
                    t0 = time.perf_counter()
                    if job.spectral is not None:
                        from ..spectral.resolvent import ResolventFactor

                        grid = job.spectral.grid()
                        with tracer.stage("spectral"):
                            factor = ResolventFactor(
                                pc, job.c, pattern=job.pattern, q=job.q,
                                guards=guards, num_threads=num_threads,
                            )
                            swept = factor.sweep(
                                grid, num_threads=num_threads
                            )
                        selection = factor.selection
                        blocks = swept.blocks
                        rung = f"spectral({grid.n})"
                    elif guards is not None:
                        res = fsi_resilient(
                            pc, job.c, pattern=job.pattern, q=job.q,
                            num_threads=num_threads, guards=guards,
                        )
                        selection = res.selection
                        blocks = res.selected
                        rung = res.rung
                    elif pdiv_partitions >= 2:
                        from ..core.pdiv import fsi_distributed

                        res = fsi_distributed(
                            pc, job.c, pattern=job.pattern, q=job.q,
                            partitions=pdiv_partitions, transport=transport,
                        )
                        selection = res.selection
                        blocks = res.selected
                        rung = f"pdiv({res.report.partitions})"
                    else:
                        res = fsi(
                            pc, job.c, pattern=job.pattern, q=job.q,
                            num_threads=num_threads,
                        )
                        selection = res.selection
                        blocks = res.selected
                        rung = res.rung
                    elapsed = time.perf_counter() - t0
    return JobResult(
        fingerprint=job.fingerprint,
        selection=selection,
        blocks=blocks,
        flops=tracer.total_flops,
        stage_flops={name: tracer.flops(name) for name in tracer.stages},
        exec_seconds=elapsed,
        rung=rung,
        h=job.h,
        spans=local_collector.drain() if local_collector is not None else [],
    )


def execute_batch(
    jobs: Sequence[GreensJob],
    fleet_ranks: int = 1,
    threads_per_rank: int = 1,
    trace_ctx: dict | None = None,
    guards: GuardConfig | None = None,
    pdiv_partitions: int = 0,
    transport: str | None = None,
) -> list[JobResult]:
    """Run a batch of *compatible* jobs (same ``compat_key``) in one worker.

    A single job (or ``fleet_ranks <= 1``) runs inline; larger batches
    are distributed over a transport fleet (``transport`` names the
    backend; default the ``REPRO_TRANSPORT`` environment variable) so
    compatible requests share the rank/thread machinery of Alg. 3.
    When ``trace_ctx`` carries a sampled span context, all spans
    recorded in this process are attached to the *first* result's
    ``spans`` (one drain per batch).  Guarded and PDIV batches always
    run inline: the fallback ladder is a per-solve control flow the
    fleet path does not thread through, and PDIV brings its own ranks.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len({j.compat_key for j in jobs}) != 1:
        raise ValueError("execute_batch requires jobs sharing one compat_key")
    n_ranks = min(fleet_ranks, len(jobs))
    # Spectral batches run inline too: each sweep already parallelises
    # over its omega-grid, and the fleet path's (h, c, pattern, q)
    # tuples cannot carry a grid.
    if (
        n_ranks <= 1
        or guards is not None
        or pdiv_partitions >= 2
        or jobs[0].spectral is not None
    ):
        with _telemetry.activate_remote(trace_ctx) as local_collector:
            with _telemetry.span("worker.batch", jobs=len(jobs)):
                results = [
                    execute_job(
                        job, num_threads=threads_per_rank, guards=guards,
                        pdiv_partitions=pdiv_partitions, transport=transport,
                    )
                    for job in jobs
                ]
        if local_collector is not None and results:
            results[0].spans = local_collector.drain()
        return results

    from ..parallel.hybrid import run_selected_fleet

    model = jobs[0].spec.build_model()
    with _telemetry.activate_remote(trace_ctx) as local_collector:
        with _telemetry.span(
            "worker.batch", jobs=len(jobs), fleet_ranks=n_ranks
        ):
            outputs = run_selected_fleet(
                model,
                [(job.field().h, job.c, job.pattern, job.q) for job in jobs],
                n_ranks=n_ranks,
                threads_per_rank=threads_per_rank,
                sigma=jobs[0].spec.sigma,
                transport=transport,
            )
    results = [
        JobResult(
            fingerprint=job.fingerprint,
            selection=out.selection,
            blocks=out.blocks,
            flops=out.flops,
            stage_flops=out.stage_flops,
            exec_seconds=out.seconds,
            h=job.h,
        )
        for job, out in zip(jobs, outputs)
    ]
    if local_collector is not None and results:
        results[0].spans = local_collector.drain()
    return results


def chaos_batch_task(
    jobs: Sequence[GreensJob],
    fleet_ranks: int = 1,
    threads_per_rank: int = 1,
    trace_ctx: dict | None = None,
    guards: GuardConfig | None = None,
    pdiv_partitions: int = 0,
    transport: str | None = None,
    plan: FaultPlan | None = None,
) -> list[JobResult]:
    """:func:`execute_batch` under a deterministic :class:`FaultPlan`.

    The worker-side chaos entry point: activates ``plan`` for the batch
    and consults the ``worker.task`` site first — ``CRASH`` SIGKILLs
    this process mid-batch (exactly what an OOM kill looks like to the
    pool), ``HANG`` sleeps past the batch timeout.  The solve-level
    sites (``cls.output``) then fire inside :func:`execute_job` per job
    fingerprint.  Decisions are pure functions of the plan seed and the
    batch's job fingerprints, so a given plan replays identically;
    one-shot rules persist their firing in the plan's ``state_dir`` and
    survive pool recycling.  Used by the chaos suite and operational
    fire drills (``--chaos-plan``).
    """
    key = jobs[0].fingerprint if jobs else ""
    with _chaos.activate(plan), _chaos.job_key(key):
        if plan is not None:
            rule = plan.decide("worker.task", key)
            if rule is not None and rule.kind is FaultKind.CRASH:
                os.kill(os.getpid(), 9)
            if rule is not None and rule.kind is FaultKind.HANG:
                time.sleep(rule.hang_seconds)
        return execute_batch(
            jobs, fleet_ranks, threads_per_rank,
            trace_ctx=trace_ctx, guards=guards,
            pdiv_partitions=pdiv_partitions, transport=transport,
        )


def _exported_task(
    segment: str, task_fn: Callable[..., list], args: tuple, kwargs: dict
) -> handoff.Parcel:
    """Worker side of :meth:`WorkerPool.run_batch`: run the task, then
    hand its result buffers over through the shared-memory ``segment``."""
    return handoff.export(task_fn(*args, **kwargs), segment)


class WorkerPool:
    """A recycling ``ProcessPoolExecutor`` with timeout + crash retry.

    ``task_fn`` is the picklable batch entry point (defaults to
    :func:`execute_batch`); tests and chaos drills substitute
    :func:`chaos_batch_task` or a slow variant.  All public methods are
    thread-safe — the scheduler calls :meth:`run_batch` from several
    dispatcher threads against the one shared pool.

    Every worker process, including those of a recycled executor, first
    applies :attr:`budget` (a :class:`~repro.parallel.budget.ParallelBudget`
    resolved from ``workers``, ``fleet_ranks`` and
    ``threads_per_rank``), so worker-side BLAS runs single-threaded
    under the pool's own process parallelism.

    Retry sleeps use *full jitter*: ``uniform(0, min(cap, backoff *
    2^(attempt-1)))``.  Deterministic backoff synchronises retry storms
    — every dispatcher thread that lost a worker to the same crash
    wakes at the same instant and hammers the recycled pool together.

    Results come back through :mod:`repro.service.handoff`: each batch's
    block buffers travel in one shared-memory segment named
    ``<segment_prefix><generation>-<seq>``, not through the result
    pipe.  :meth:`_recycle` and :meth:`shutdown` sweep the segments a
    killed worker left behind.
    """

    def __init__(
        self,
        workers: int,
        *,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        task_fn: Callable[..., list[JobResult]] = execute_batch,
        fleet_ranks: int = 1,
        threads_per_rank: int = 1,
        transport: str | None = None,
        pdiv_partitions: int = 0,
        guards: GuardConfig | None = None,
        on_retry: Callable[[int], None] | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retry_backoff_max < 0:
            raise ValueError("retry_backoff_max must be >= 0")
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self._task_fn = task_fn
        self._fleet_ranks = fleet_ranks
        self._threads_per_rank = threads_per_rank
        self._transport = transport
        self._pdiv_partitions = pdiv_partitions
        self._guards = guards
        self._on_retry = on_retry
        # Custom task_fns (tests, chaos drills) may predate telemetry or
        # the guards; only forward the optional kwargs the signature
        # actually takes, so they keep working unchanged.
        try:
            self._task_params = set(inspect.signature(task_fn).parameters)
        except (TypeError, ValueError):  # pragma: no cover - C callables
            self._task_params = set()
        #: Applied in every worker process this pool starts.
        self.budget = ParallelBudget.resolve(
            processes=workers, ranks=fleet_ranks, team=threads_per_rank
        )
        #: Names of this pool's result segments start with this.
        self.segment_prefix = handoff.pool_prefix()
        self._segments = itertools.count()
        # Workers fork with the resource tracker's pipe, so segment
        # (un)registrations from every process reach one tracker.
        resource_tracker.ensure_running()
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._executor = self._new_executor()

    # ------------------------------------------------------------------
    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=self.budget.apply,
        )

    def _current(self) -> tuple[ProcessPoolExecutor, int, str]:
        """The live executor, its generation, and a fresh segment name."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            segment = (
                f"{self.segment_prefix}{self._generation}-{next(self._segments)}"
            )
            return self._executor, self._generation, segment

    def _recycle(self, seen_generation: int) -> None:
        """Replace a broken/stuck executor exactly once per generation."""
        with self._lock:
            if self._closed or self._generation != seen_generation:
                return  # another thread already recycled (or we're closing)
            old = self._executor
            self._generation += 1
            self._executor = self._new_executor()
        # Reap the old pool outside the lock; terminate stuck children so
        # a timed-out job cannot pin a CPU (or the interpreter) forever.
        # Its workers are dead after that, so their segments can go.
        _terminate(old)
        handoff.sweep(self.segment_prefix, seen_generation + 1)

    # ------------------------------------------------------------------
    def run_batch(
        self,
        jobs: Sequence[GreensJob],
        trace_ctx: dict | None = None,
    ) -> list[JobResult]:
        """Execute a batch with timeout/retry; blocks the calling thread."""
        attempts = 0
        kwargs = {}
        if trace_ctx is not None and "trace_ctx" in self._task_params:
            kwargs["trace_ctx"] = trace_ctx
        if self._guards is not None and "guards" in self._task_params:
            kwargs["guards"] = self._guards
        if self._transport is not None and "transport" in self._task_params:
            kwargs["transport"] = self._transport
        if self._pdiv_partitions >= 2 and "pdiv_partitions" in self._task_params:
            kwargs["pdiv_partitions"] = self._pdiv_partitions
        args = (list(jobs), self._fleet_ranks, self._threads_per_rank)
        while True:
            executor, generation, segment = self._current()
            try:
                future = executor.submit(
                    _exported_task, segment, self._task_fn, args, kwargs
                )
                return handoff.receive(future.result(timeout=self.job_timeout))
            except _FutureTimeout:
                self._recycle(generation)
                raise JobTimeoutError(
                    f"batch of {len(jobs)} exceeded {self.job_timeout}s"
                ) from None
            except (BrokenProcessPool, CancelledError, handoff.SegmentLost) as exc:
                # CancelledError: our future was parked on an executor a
                # sibling thread recycled — same recovery as a crash.
                # SegmentLost: that recycle swept our result segment
                # before we mapped it.
                attempts += 1
                self._recycle(generation)
                if attempts > self.max_retries:
                    raise WorkerCrashError(
                        f"batch of {len(jobs)} failed after"
                        f" {self.max_retries} retries"
                    ) from exc
                if self._on_retry is not None:
                    self._on_retry(attempts)
                cap = min(
                    self.retry_backoff_max,
                    self.retry_backoff * 2 ** (attempts - 1),
                )
                time.sleep(random.uniform(0.0, cap))

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
            generations = self._generation + 1
        if cancel_futures:
            _terminate(executor, wait=wait)
        else:
            executor.shutdown(wait=wait)
            if not wait:
                return  # running tasks still hand their segments over
        handoff.sweep(self.segment_prefix, generations)


#: How long :func:`_terminate` waits for each terminated worker to exit.
_REAP_SECONDS = 5.0


def _terminate(executor: ProcessPoolExecutor, wait: bool = False) -> None:
    """Cancel ``executor``'s queued work and kill its worker processes.

    ``shutdown`` runs first because it waits out a concurrent ``submit``,
    which may still be forking the workers: a worker missing from the
    process table read before that would run its task forever, and a
    caller blocked on the task with it.  ``shutdown`` drops the table
    and the manager thread, so both are taken before it runs.
    """
    table = executor._processes
    manager = executor._executor_manager_thread
    executor.shutdown(wait=False, cancel_futures=True)
    processes = list((table or {}).values())
    for proc in processes:
        proc.terminate()
    # Joined, so none of them can still write a result segment.
    for proc in processes:
        proc.join(timeout=_REAP_SECONDS)
    if wait and manager is not None:
        manager.join()
