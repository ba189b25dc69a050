"""Process-based execution of Green's-function jobs.

NumPy's BLAS releases the GIL, but the surrounding Python (matrix
assembly, block bookkeeping, wrapping loops) does not — a process pool
is the first layer of this codebase that escapes it entirely.  The pool
wraps :class:`concurrent.futures.ProcessPoolExecutor` with the three
behaviours a serving layer cannot live without:

* **per-job timeouts** — a wedged worker surfaces as a typed
  :class:`~repro.service.errors.JobTimeoutError` instead of a hang, and
  the pool is recycled to reclaim the stuck process;
* **bounded retry with exponential backoff** — a crashed worker
  (``BrokenProcessPool``: OOM-killed child, segfaulted BLAS, ...)
  triggers pool recycling and resubmission up to ``max_retries`` times
  before the failure is reported as
  :class:`~repro.service.errors.WorkerCrashError`;
* **graceful shutdown** — in-flight work completes before the pool is
  torn down unless cancellation is requested.

The pool's task is :func:`execute_job`, a module-level function of
picklable arguments, called with one job per task;
:func:`execute_batch` loops it over a list of compatible jobs for the
end-to-end benchmark harness.  Each solve runs
under a :class:`~repro.telemetry.FlopTracer`, which reads the flops its
:func:`repro.telemetry.stage` blocks count, and returns them with the
blocks as ``JobResult.stage_flops``, so the service can aggregate
CLS/BSOFI/WRP rates without re-tracing; spectral jobs report the same
stages.  The worker processes are the service's one parallel layer
(the ranks of the paper's Alg. 3): every job runs inline through
:func:`execute_job` in the worker that received it.

A worker solves job after job, so it keeps its heap between them
(:mod:`repro.parallel.heap`): otherwise glibc returns each job's freed
transients to the kernel and the next job faults them in again.
:func:`execute_job` reports the page faults it took as
``JobResult.minor_faults``.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import threading
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    TimeoutError as _FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Sequence

from ..core.patterns import BlockArray, Selection, result_buffers
from ..core.pcyclic import BlockPCyclic
from ..parallel.budget import ParallelBudget
from ..parallel.heap import keep_heap
from ..telemetry import FlopTracer
from ..resilience import chaos as _chaos
from ..resilience.chaos import FaultKind, FaultPlan
from ..resilience.guards import GuardConfig
from ..telemetry import runtime as _telemetry
from . import handoff
from .errors import JobTimeoutError, ServiceClosedError, WorkerCrashError
from .job import GreensJob, JobResult

__all__ = ["execute_job", "execute_batch", "chaos_task", "WorkerPool"]


def execute_job(
    job: GreensJob,
    num_threads: int | None = None,
    trace_ctx: dict | None = None,
    guards: GuardConfig | None = None,
) -> JobResult:
    """Rebuild the model + field and run one traced FSI (worker side).

    ``trace_ctx`` is a serialized telemetry span context from the
    scheduler; when present, the worker's spans are recorded and shipped
    back in ``JobResult.spans`` so the caller can stitch one trace.
    With ``guards`` the solve runs through
    :func:`~repro.core.fsi.fsi_resilient` (health checks + the fallback
    ladder); the serving rung is reported on ``JobResult.rung``.

    Spectral jobs (``job.spectral`` set) run a factor-once
    :class:`~repro.spectral.resolvent.ResolventFactor` sweep over the
    job's omega-grid instead of an equal-time FSI — guards, when given,
    ride along as the per-shift fallback ladder — and report rung
    ``spectral(n_omega)`` with blocks stacked ``(n_omega, N, N)``.
    Every path reports ``stage_flops`` by its
    :func:`repro.telemetry.stage` labels (``cls``/``bsofi``/``wrp``).
    ``JobResult.minor_faults`` (and the span's ``minor_faults``) counts
    the page faults this process took from the model build to the end
    of the solve; run inline, other threads' faults count too.
    ``num_threads`` is accepted and ignored: every path solves on the
    calling thread.  Kept so that existing callers, which pass a team
    size, run unchanged.
    """
    faults0 = _minor_faults()
    model = job.spec.build_model()
    pc = model.build_matrix(job.field(), job.spec.sigma)
    with _telemetry.activate_remote(trace_ctx) as local_collector:
        with _telemetry.span(
            "worker.job", fingerprint=job.fingerprint[:12],
            workload=job.workload,
        ) as span, _chaos.job_key(job.fingerprint), FlopTracer() as tracer:
            t0 = time.perf_counter()
            selection, blocks, rung = _solve(job, pc, guards)
            elapsed = time.perf_counter() - t0
            faults = _minor_faults() - faults0
            span.set_attribute("minor_faults", faults)
    return JobResult(
        fingerprint=job.fingerprint,
        selection=selection,
        blocks=blocks,
        stage_flops={name: tracer.flops(name) for name in tracer.stages},
        exec_seconds=elapsed,
        minor_faults=faults,
        rung=rung,
        h=job.h,
        spans=local_collector.drain() if local_collector is not None else [],
    )


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _solve(
    job: GreensJob, pc: BlockPCyclic, guards: GuardConfig | None
) -> tuple[Selection, BlockArray, str]:
    """``(selection, blocks, rung)`` of the one serving path for ``job``:
    a spectral sweep, else the guarded ladder, else ``fsi``."""
    # Worker-side imports keep module load light.
    from ..core.fsi import fsi, fsi_resilient

    if job.spectral is not None:
        from ..spectral.resolvent import ResolventFactor

        grid = job.spectral.grid()
        factor = ResolventFactor(
            pc, job.c, pattern=job.pattern, q=job.q, guards=guards
        )
        swept = factor.sweep(grid)
        return factor.selection, swept.blocks, f"spectral({grid.n})"
    solve = fsi if guards is None else fsi_resilient
    out = solve(pc, job.c, pattern=job.pattern, q=job.q, guards=guards)
    return out.selection, out.selected, out.rung


def execute_batch(
    jobs: Sequence[GreensJob],
    fleet_ranks: int = 1,
    threads_per_rank: int = 1,
    trace_ctx: dict | None = None,
    guards: GuardConfig | None = None,
) -> list[JobResult]:
    """Run *compatible* jobs (same ``compat_key``) one after another
    through :func:`execute_job` in this process.

    The service never calls this: its pool runs one job per task.  It
    is the replay loop of the end-to-end benchmark harness
    (``benchmarks/e2e/replay.py``).  ``fleet_ranks`` must be 1: the
    worker processes are the only rank level.  ``threads_per_rank`` is
    accepted and ignored, as :func:`execute_job`'s ``num_threads`` is.
    When ``trace_ctx`` carries a sampled span context, all spans
    recorded in this process are attached to the *first* result's
    ``spans`` (one drain per call).
    """
    if fleet_ranks != 1:
        raise ValueError(
            f"fleet_ranks must be 1 (jobs run inline), got {fleet_ranks}"
        )
    jobs = list(jobs)
    if not jobs:
        return []
    if len({j.compat_key for j in jobs}) != 1:
        raise ValueError("execute_batch requires jobs sharing one compat_key")
    with _telemetry.activate_remote(trace_ctx) as local_collector:
        with _telemetry.span("worker.batch", jobs=len(jobs)):
            results = [execute_job(job, guards=guards) for job in jobs]
    if local_collector is not None:
        results[0].spans = local_collector.drain()
    return results


def chaos_task(
    job: GreensJob, plan: FaultPlan | None = None, **kwargs
) -> JobResult:
    """:func:`execute_job` under a deterministic :class:`FaultPlan`.

    The worker-side chaos entry point: activates ``plan`` for the job
    and consults the ``worker.task`` site first — ``CRASH`` SIGKILLs
    this process mid-job (exactly what an OOM kill looks like to the
    pool), ``HANG`` sleeps past the job timeout.  The solve-level sites
    (``cls.output``) then fire inside :func:`execute_job`.  Decisions
    are pure functions of the plan seed and the job's fingerprint, so a
    given plan replays identically; one-shot rules persist their firing
    in the plan's ``state_dir`` and survive pool recycling.  Used by the
    chaos suite and operational fire drills (``--chaos-plan``).
    """
    with _chaos.activate(plan), _chaos.job_key(job.fingerprint):
        if plan is not None:
            rule = plan.decide("worker.task", job.fingerprint)
            if rule is not None and rule.kind is FaultKind.CRASH:
                os.kill(os.getpid(), 9)
            if rule is not None and rule.kind is FaultKind.HANG:
                time.sleep(rule.hang_seconds)
        return execute_job(job, **kwargs)


def _exported_task(
    lease: handoff.Lease | None,
    task_fn: Callable[..., JobResult],
    job: GreensJob,
    kwargs: dict,
) -> handoff.Parcel:
    """Worker side of :meth:`WorkerPool.run`: run the task, then hand
    its result's buffer over through the leased segment.

    With a lease, the result is solved straight into it
    (:class:`~repro.service.handoff.Arena`), and nothing is copied.
    """
    arena = None if lease is None else handoff.Arena(lease)
    with result_buffers(arena):
        result = task_fn(job, **kwargs)
    return handoff.export(result, lease, arena)


#: How often a pool worker checks that the service process is alive.
_PARENT_POLL_SECONDS = 0.5


def _init_worker(budget: ParallelBudget, parent: int) -> None:
    """Initializer of every pool worker: apply the pool's budget, keep
    the worker's heap across jobs, and exit once process ``parent``
    (the service) is gone.

    :func:`~repro.parallel.heap.keep_heap` stops glibc from handing a
    job's freed heap back to the kernel: without it, every paper-scale
    job faults its 7-9 MB of transients in again, page by page.

    An orphaned worker would otherwise wait on its call queue forever,
    holding the resource tracker's pipe open, so the tracker would
    never unlink the segments of a killed service.
    """
    budget.apply()
    keep_heap()
    threading.Thread(
        target=_exit_with_parent, args=(parent,), name="repro-parent-watch",
        daemon=True,
    ).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


class WorkerPool:
    """A recycling ``ProcessPoolExecutor`` with timeout + crash retry.

    ``task_fn`` is the picklable job entry point (defaults to
    :func:`execute_job`); tests and chaos drills substitute
    :func:`chaos_task` or a slow variant.  :meth:`run` calls it with one
    job and the keywords ``trace_ctx`` and ``guards``.
    ``on_retry`` hears each retry's attempt number, ``on_handoff`` each
    returned job's :attr:`~repro.service.handoff.Parcel.way` and
    worker-side export seconds.  All public methods are thread-safe — the scheduler calls
    :meth:`run` from several dispatcher threads against the one shared
    pool.

    Every worker process, including those of a recycled executor, first
    applies :attr:`budget` (a :class:`~repro.parallel.budget.ParallelBudget`
    resolved from ``workers``, one rank and a team of one per worker),
    so worker-side BLAS runs single-threaded under the pool's own
    process parallelism, and then keeps its heap from job to job
    (:func:`~repro.parallel.heap.keep_heap`).

    Retry sleeps use *full jitter*: ``uniform(0, min(cap, backoff *
    2^(attempt-1)))``.  Deterministic backoff synchronises retry storms
    — every dispatcher thread that lost a worker to the same crash
    wakes at the same instant and hammers the recycled pool together.

    Results come back through :mod:`repro.service.handoff`.
    :attr:`segments` (a :class:`~repro.service.handoff.ResultSegments`,
    at most ``workers`` idle) lends every job a segment sized by its
    :attr:`~repro.service.job.GreensJob.result_nbytes`, which the
    worker solves the result into.  The lease of a crashed or timed-out
    job is lent again once :meth:`_recycle` has joined its worker;
    :meth:`shutdown` unlinks every segment.
    """

    def __init__(
        self,
        workers: int,
        *,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        task_fn: Callable[..., JobResult] = execute_job,
        guards: GuardConfig | None = None,
        on_retry: Callable[[int], None] | None = None,
        on_handoff: Callable[[str, float], None] | None = None,
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
        #: Forwarded to ``task_fn`` with every job (plus ``trace_ctx``).
        self._task_kwargs = {"guards": guards}
        self._on_retry = on_retry
        self._on_handoff = on_handoff
        #: Applied in every worker process this pool starts.
        self.budget = ParallelBudget.resolve(processes=workers, team=1)
        #: The result segments this pool owns and lends.
        self.segments = handoff.ResultSegments(bound=workers)
        # Started before any worker forks, so the workers report the
        # segments they map to this pool's tracker, not one of their own.
        resource_tracker.ensure_running()
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._executor = self._new_executor()

    # ------------------------------------------------------------------
    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=functools.partial(_init_worker, self.budget, os.getpid()),
        )

    def _current(self) -> tuple[ProcessPoolExecutor, int]:
        """The live executor and its generation."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            return self._executor, self._generation

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
        # Its workers are dead after that: the segments leased to them
        # can be lent again.
        _terminate(old)
        self.segments.reaped(seen_generation + 1)

    # ------------------------------------------------------------------
    def run(self, job: GreensJob, trace_ctx: dict | None = None) -> JobResult:
        """Execute one job with timeout/retry; blocks the calling thread."""
        attempts = 0
        kwargs = {**self._task_kwargs, "trace_ctx": trace_ctx}
        while True:
            executor, generation = self._current()
            lease = self.segments.lease(job.result_nbytes)
            try:
                future = self._submit(executor, lease, job, kwargs)
                parcel = future.result(timeout=self.job_timeout)
            except _FutureTimeout:
                self._recycle(generation)
                self.segments.strand(lease, generation)
                raise JobTimeoutError(
                    f"job exceeded {self.job_timeout}s"
                ) from None
            except (BrokenProcessPool, CancelledError) as exc:
                # CancelledError: our future was parked on an executor a
                # sibling thread recycled — same recovery as a crash.
                self.segments.strand(lease, generation)
                failure = exc
            except BaseException:
                # The task raised in a worker that is still alive.
                self.segments.release(lease)
                raise
            else:
                result = self.segments.receive(parcel, lease)
                if self._on_handoff is not None:
                    self._on_handoff(parcel.way, parcel.export_seconds)
                return result
            attempts += 1
            self._recycle(generation)
            if attempts > self.max_retries:
                raise WorkerCrashError(
                    f"job failed after {self.max_retries} retries"
                ) from failure
            if self._on_retry is not None:
                self._on_retry(attempts)
            cap = min(
                self.retry_backoff_max,
                self.retry_backoff * 2 ** (attempts - 1),
            )
            time.sleep(random.uniform(0.0, cap))

    def _submit(
        self, executor: ProcessPoolExecutor, lease: handoff.Lease | None,
        job: GreensJob, kwargs: dict,
    ) -> Future:
        """Submit one job to ``executor``, as :meth:`_current` returned it.

        An executor shut down since refuses with a bare ``RuntimeError``.
        That is :class:`ServiceClosedError` when :meth:`shutdown` closed
        the pool (the caller releases the lease), and otherwise a
        sibling's recycle, recovered like a future it cancelled.
        """
        try:
            return executor.submit(
                _exported_task, lease, self._task_fn, job, kwargs
            )
        except BrokenProcessPool:
            raise
        except RuntimeError:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down") from None
            raise CancelledError() from None

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor = self._executor
        if cancel_futures:
            _terminate(executor, wait=wait)
        else:
            executor.shutdown(wait=wait)
        # Segments still leased to a running job are unlinked as they
        # return.
        self.segments.close()


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
