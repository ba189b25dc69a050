"""The Green's-function service: queue, coalescing, dispatch, cache.

:class:`GreensService` turns :func:`repro.core.fsi.fsi` calls into
schedulable, cacheable, retryable *jobs*:

1. ``submit(job)`` returns a :class:`JobTicket` immediately.  The
   fingerprint is checked against the result cache (hit: the ticket is
   resolved on the spot), then against the in-flight table (identical
   fingerprint already queued or executing: the ticket *coalesces* onto
   that computation), and only then admitted to the bounded priority
   queue under the configured backpressure policy.
2. Dispatcher threads (one per worker process) each pop the
   highest-priority entry and run its job on the process pool; the
   worker solves it inline (:func:`repro.service.workers.execute_job`).
   The worker processes are the service's one parallel layer, the ranks
   of the paper's Alg. 3: a second rank level inside each worker only
   shares the same cores.
3. Completion inserts results into the LRU byte-budget cache and
   resolves every coalesced ticket; failures resolve tickets with the
   typed errors of :mod:`repro.service.errors`.

``shutdown(drain=True)`` stops admissions, lets the dispatchers empty
the queue, then reaps the pool; ``drain=False`` fails queued tickets
with :class:`ServiceClosedError` and cancels outstanding pool work.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, ClassVar

import numpy as np

from ..core.smw import PCyclicWoodbury, diag_flips
from ..hubbard.hs_field import HSField
from ..telemetry import FlopTracer
from ..resilience.chaos import FaultKind, FaultPlan
from ..resilience.guards import GuardConfig, NumericalHealthError, all_finite
from ..resilience.health import BreakerState, CircuitBreaker, ServiceState
from ..telemetry import runtime as _telemetry
from ..telemetry.context import use_context
from ..telemetry.spans import NULL_SPAN
from .cache import CacheStats, LRUResultCache
from .errors import (
    InvalidJobError,
    JobFailedError,
    JobSheddedError,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    WorkerCrashError,
)
from .job import GreensJob, JobResult
from .metrics import ServiceMetrics
from .queue import BackpressurePolicy, BoundedPriorityQueue, QueueEntry
from .workers import WorkerPool, chaos_task, execute_job

__all__ = ["ServiceConfig", "JobTicket", "GreensService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of one :class:`GreensService` instance."""

    workers: int = 2
    queue_capacity: int = 256
    backpressure: BackpressurePolicy = BackpressurePolicy.BLOCK
    #: Result-cache byte budget.  Sized to the reuse requests have — a
    #: delta base (5 MB at paper scale) refreshed by each hint, the
    #: chunks an overlapping omega-grid re-reads — not to hold every
    #: result: unique results never read again only grow the process.
    cache_bytes: int = 32 * 1024 * 1024
    job_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    retry_backoff_max: float = 2.0
    #: Ranks per worker process: always 1, each worker solves its job
    #: inline.  A constant, not a knob.
    fleet_ranks: ClassVar[int] = 1
    #: Threads per rank: always 1, each job solves on its worker's
    #: calling thread.  A constant, not a knob.
    threads_per_rank: ClassVar[int] = 1
    task_fn: Callable = dataclass_field(default=execute_job)
    #: When set, workers solve through ``fsi_resilient`` with these
    #: guards, and the scheduler screens results before caching them.
    guards: GuardConfig | None = None
    #: Consecutive infrastructure failures (crashes/timeouts) that trip
    #: the worker-pool circuit breaker.
    breaker_threshold: int = 3
    #: Seconds the breaker holds OPEN before half-open probes.
    breaker_reset: float = 5.0
    #: Concurrent half-open probe dispatches.
    breaker_probes: int = 1
    #: Deterministic fault-injection plan (chaos drills); routes jobs
    #: through :func:`~repro.service.workers.chaos_task`.
    chaos_plan: FaultPlan | None = None
    #: Serve requests carrying a ``base_fingerprint`` hint by a
    #: Sherman–Morrison delta update of the cached base when possible
    #: (see :mod:`repro.core.smw` and ``docs/incremental.md``).
    delta_updates: bool = True
    #: Largest HS-field diff (number of flips) the delta path accepts;
    #: beyond it a full solve is cheaper/safer.
    delta_rank_budget: int = 16
    #: Longest delta chain before a fresh solve is forced (Bauer-style
    #: restabilisation: each link adds rounding error).
    delta_max_depth: int = 8
    #: Relative residual of the structured solves above which the delta
    #: is discarded and the request falls back to a full solve.
    delta_residual_tol: float = 1e-6
    #: Condition-number limit on the Woodbury capacitance matrix.
    delta_cond_limit: float = 1e10
    #: How many per-base :class:`~repro.core.smw.PCyclicWoodbury`
    #: factorisations to keep (LRU).  Factoring is one CLS plus one
    #: structured QR of the b-block reduced chain; a warm base skips it.
    delta_solver_states: int = 4
    #: Spectral fan-out width: an omega-grid longer than this many
    #: points is split into contiguous chunk jobs of at most this size,
    #: scheduled independently (one factorisation each, shifts shared
    #: inside the chunk) and stitched back in grid order.  Each chunk is
    #: cached under its own fingerprint, so re-requests and overlapping
    #: grids hit per (fingerprint, omega-chunk).
    spectral_chunk: int = 8

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.delta_rank_budget < 1:
            raise ValueError("delta_rank_budget must be >= 1")
        if self.delta_max_depth < 1:
            raise ValueError("delta_max_depth must be >= 1")
        if self.delta_solver_states < 1:
            raise ValueError("delta_solver_states must be >= 1")
        if self.spectral_chunk < 1:
            raise ValueError("spectral_chunk must be >= 1")


class JobTicket:
    """A submitted job's handle: blocks on :meth:`result`, never on submit.

    One computation can back many tickets (coalescing); each ticket gets
    its own latency accounting from its own submission time.
    """

    def __init__(self, fingerprint: str, submitted_at: float):
        self.fingerprint = fingerprint
        self.submitted_at = submitted_at
        self.cache_hit = False
        self.coalesced = False
        #: Served by the Sherman–Morrison delta fast path.
        self.delta_hit = False
        self.resolved_at: float | None = None
        self._event = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None
        #: Telemetry request span; lives from submit to resolution so
        #: the trace covers the whole client-visible latency.
        self._span = NULL_SPAN

    # -- completion (service side) -------------------------------------
    def _resolve(self, result: JobResult) -> None:
        self._result = result
        self.resolved_at = time.monotonic()
        self._span.set_attribute("cache_hit", self.cache_hit)
        self._span.set_attribute("coalesced", self.coalesced)
        self._span.end()
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.resolved_at = time.monotonic()
        self._span.set_attribute("error", type(error).__name__)
        self._span.end()
        self._event.set()

    # -- client side ----------------------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until resolved; raise the job's typed error on failure."""
        if not self._event.wait(timeout=timeout):
            raise TimeoutError(
                f"ticket {self.fingerprint[:12]} not resolved within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout=timeout):
            raise TimeoutError("ticket not resolved")
        return self._error

    @property
    def latency(self) -> float | None:
        """Submit-to-resolution seconds (``None`` while pending)."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.submitted_at


class GreensService:
    """A cached, coalescing, process-parallel Green's-function server.

    Usable as a context manager (drains on exit)::

        with GreensService(ServiceConfig(workers=2)) as svc:
            ticket = svc.submit(job)
            blocks = ticket.result().blocks
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.metrics = ServiceMetrics()
        # Lookups go through the uncounted ``peek``: submit() counts
        # each one once, in ``self.metrics``.
        self.cache = LRUResultCache(cfg.cache_bytes)
        self._queue = BoundedPriorityQueue(cfg.queue_capacity, cfg.backpressure)
        task_fn = cfg.task_fn
        if cfg.chaos_plan is not None:
            task_fn = functools.partial(chaos_task, plan=cfg.chaos_plan)
        self._pool = WorkerPool(
            cfg.workers,
            job_timeout=cfg.job_timeout,
            max_retries=cfg.max_retries,
            retry_backoff=cfg.retry_backoff,
            retry_backoff_max=cfg.retry_backoff_max,
            task_fn=task_fn,
            guards=cfg.guards,
            # Bound to the counter, not to ``self``: a closure over the
            # service would keep a shut-down service alive in a cycle.
            on_retry=lambda _n, retries=self.metrics.retries: retries.inc(),
            on_handoff=self.metrics.absorb_handoff,
        )
        # The pool forks its workers on first submit, so this process
        # runs under the pool's budget before any worker exists.
        self.budget = self._pool.budget.apply()
        self._breaker = CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            reset_timeout=cfg.breaker_reset,
            half_open_probes=cfg.breaker_probes,
        )
        self._lock = threading.Lock()
        self._inflight: dict[str, QueueEntry] = {}
        #: LRU of per-base Woodbury factorisations (delta fast path).
        self._delta_states: OrderedDict[str, PCyclicWoodbury] = OrderedDict()
        self._delta_lock = threading.Lock()
        #: Marks the current thread as inside a spectral fan-out, so the
        #: re-entrant chunk submits don't count as client requests.
        self._spectral_fanout = threading.local()
        self._closed = False
        self._stopping = threading.Event()
        self._register_gauges()
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"greens-dispatch-{i}",
                daemon=True,
            )
            for i in range(cfg.workers)
        ]
        for thread in self._dispatchers:
            thread.start()

    def _register_gauges(self) -> None:
        """Callback gauges over live service state (read at scrape time).

        The registry is the service's own, so each callback reaches the
        service through a weak reference: a closure over ``self`` would
        form a cycle that keeps a shut-down, dropped service (its cache
        and results) alive until the cyclic GC runs.  A gauge read after
        the service is gone is NaN.
        """
        r = self.metrics.registry
        service = weakref.ref(self)

        def live(read: Callable[[GreensService], float]) -> Callable[[], float]:
            def callback() -> float:
                svc = service()
                return math.nan if svc is None else float(read(svc))
            return callback

        r.gauge(
            "repro_queue_depth", "Jobs waiting in the priority queue",
            callback=live(lambda svc: len(svc._queue)),
        )
        r.gauge(
            "repro_inflight_jobs", "Distinct fingerprints queued or executing",
            callback=live(lambda svc: len(svc._inflight)),
        )
        r.gauge(
            "repro_cache_bytes_used", "Result-cache bytes in use",
            callback=live(lambda svc: svc.cache.stats().bytes_used),
        )
        r.gauge(
            "repro_cache_evictions",
            "Cached results evicted to make room, since start",
            callback=live(lambda svc: svc.cache.stats().evictions),
        )
        r.gauge(
            "repro_cache_drops",
            "Results refused by the cache as larger than its budget,"
            " since start",
            callback=live(lambda svc: svc.cache.stats().drops),
        )

        def hit_rate(svc: GreensService) -> float:
            hits = svc.metrics.cache_hits.value
            total = hits + svc.metrics.cache_misses.value
            return hits / total if total else 0.0

        r.gauge(
            "repro_cache_hit_rate", "Result-cache hit rate (0..1)",
            callback=live(hit_rate),
        )
        r.gauge(
            "repro_result_segments_idle_bytes",
            "Bytes of pooled result segments waiting for a job",
            callback=live(lambda svc: svc._pool.segments.idle_bytes()),
        )
        r.gauge(
            "repro_result_segments_held_bytes",
            "Bytes of pooled result segments mapped by results handed out"
            " (cached or with a caller)",
            callback=live(lambda svc: svc._pool.segments.held_bytes()),
        )
        r.gauge(
            "repro_result_segments_created",
            "Pooled result segments created (a lease no idle one served),"
            " since start",
            callback=live(lambda svc: svc._pool.segments.created),
        )
        r.gauge(
            "repro_delta_states",
            "Warm per-base Woodbury factorisations held for delta serving",
            callback=live(lambda svc: len(svc._delta_states)),
        )
        r.gauge(
            "repro_service_state",
            "Service health (0 healthy, 1 degraded, 2 failed)",
            callback=live(lambda svc: svc.state.value),
        )
        r.gauge(
            "repro_breaker_trips", "Worker-pool circuit-breaker trips",
            callback=live(lambda svc: svc._breaker.trips),
        )
        r.gauge(
            "repro_parallel_budget_info",
            "Parallelism budget of this service (value is always 1)",
            labels=("cores", "processes", "team", "blas", "source"),
        ).labels(**self.budget.as_dict()).set(1)

    # ------------------------------------------------------------------
    def __enter__(self) -> "GreensService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown(drain=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_job(job: GreensJob) -> None:
        """Admission-time sanity: refuse a job that cannot compute.

        Runs before the fingerprint is ever used — a poisoned request
        must not become a coalescing key or a cache key.
        """
        for name in ("t", "U", "beta", "mu"):
            value = getattr(job.spec, name)
            if not math.isfinite(value):
                raise InvalidJobError(
                    f"model parameter {name}={value!r} is not finite"
                )
        h = np.frombuffer(job.h, dtype=np.int8)
        bad = ~np.isin(h, (-1, 1))
        if bad.any():
            raise InvalidJobError(
                f"HS field buffer has {int(bad.sum())} entries outside"
                " {-1, +1} (corrupted or non-finite source field)"
            )

    def submit(self, job: GreensJob, priority: int = 0) -> JobTicket:
        """Admit one job; returns immediately with a ticket.

        Raises :class:`InvalidJobError` for unusable jobs,
        :class:`ServiceClosedError` after shutdown,
        :class:`ServiceDegradedError` when the circuit breaker is open
        (cache hits and coalesced results are still served), and
        :class:`QueueFullError` when the backpressure policy refuses
        admission (``REJECT``, or ``SHED_LOWEST`` without a victim).
        """
        self._validate_job(job)
        ticket = JobTicket(job.fingerprint, time.monotonic())
        ticket._span = _telemetry.start_span(
            "service.request",
            fingerprint=job.fingerprint[:12],
            pattern=job.pattern.value,
            c=job.c,
            workload=job.workload,
        )
        self.metrics.submitted.inc()

        # Wide spectral grids fan out into chunk jobs through the
        # ordinary path below and stitch asynchronously; the parent
        # fingerprint is never cached (chunks are the cache unit), so
        # no parent lookup happens here.  Grids that fit one chunk flow
        # on as a single plain job.
        if job.spectral is not None:
            # Fan-out children re-enter submit() on the same thread;
            # only the top-level request counts as a *request*, every
            # admitted grid piece counts as a *chunk*.
            if not getattr(self._spectral_fanout, "active", False):
                self.metrics.spectral_requests.inc()
            if job.spectral.n_omega > self.config.spectral_chunk:
                return self._submit_spectral(job, ticket, priority)
            self.metrics.spectral_chunks.inc()

        cached = self.cache.peek(job.fingerprint)
        if cached is not None:
            return self._serve_cached(ticket, cached)
        self.metrics.cache_misses.inc()

        # Delta fast path: a request hinting at a cached base may be
        # served by a rank-k Woodbury update instead of a full solve.
        # Runs inline in the submitting thread — it is O(L N^2 k) on a
        # warm base, far below the queue + process-pool round trip.
        if self._try_delta(job, ticket):
            return ticket

        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            entry = self._inflight.get(job.fingerprint)
            if entry is not None:
                entry.tickets.append(ticket)
                ticket.coalesced = True
                self.metrics.coalesced.inc()
                return ticket
            # Re-check the cache under the lock: a completion may have
            # cached this fingerprint and left the in-flight table
            # between our miss above and acquiring the lock — without
            # this, that race would recompute a cached result.
            # This request's miss was counted above; only a rescued
            # hit is news.
            cached = self.cache.peek(job.fingerprint)
            if cached is not None:
                return self._serve_cached(ticket, cached)
            # Not cached, not coalescible: this needs fresh compute,
            # which an open breaker sheds instead of queueing behind a
            # dead pool.  (HALF_OPEN still admits — queued jobs are the
            # probes that let the breaker close again.)
            if self._breaker.state is BreakerState.OPEN:
                self.metrics.rejected.inc()
                retry_after = self._breaker.retry_after()
                raise ServiceDegradedError(
                    "service degraded: worker pool circuit breaker is"
                    f" open; retry in {retry_after:.2f}s",
                    retry_after=retry_after,
                )
            entry = QueueEntry(
                priority=priority,
                seq=self._queue.next_seq(),
                job=job,
                tickets=[ticket],
            )
            self._inflight[job.fingerprint] = entry

        shed = None
        try:
            shed = self._queue.put(entry)
        except QueueFullError:
            with self._lock:
                self._inflight.pop(job.fingerprint, None)
            self.metrics.rejected.inc()
            raise
        except ServiceClosedError:
            with self._lock:
                self._inflight.pop(job.fingerprint, None)
            raise
        if shed is not None:
            self._fail_entry(
                shed,
                JobSheddedError(
                    f"job {shed.job.fingerprint[:12]} (priority"
                    f" {shed.priority}) shed for priority {priority}"
                ),
                counter=self.metrics.shed,
            )
        return ticket

    def _serve_cached(self, ticket: JobTicket, result: JobResult) -> JobTicket:
        """Resolve ``ticket`` from a cache hit, counting the hit."""
        self.metrics.cache_hits.inc()
        ticket.cache_hit = True
        self._resolve(ticket, result)
        return ticket

    def _resolve(self, ticket: JobTicket, result: JobResult) -> None:
        """Resolve ``ticket`` with ``result``; count its latency and
        completion."""
        ticket._resolve(result)
        self.metrics.latency.observe(ticket.latency or 0.0)
        self.metrics.completed.inc()

    def _fail(self, ticket: JobTicket, error: BaseException) -> None:
        """Fail ``ticket`` with ``error`` and count the failure."""
        ticket._fail(error)
        self.metrics.failed.inc()

    def compute(
        self, job: GreensJob, priority: int = 0, timeout: float | None = None
    ) -> JobResult:
        """Synchronous convenience: ``submit(...).result(...)``."""
        return self.submit(job, priority=priority).result(timeout=timeout)

    # -- spectral fan-out (omega-grid workload) -------------------------
    def _submit_spectral(
        self, job: GreensJob, ticket: JobTicket, priority: int
    ) -> JobTicket:
        """Fan a wide omega-grid out into chunk jobs; stitch in order.

        Each contiguous grid chunk becomes an ordinary job with its own
        fingerprint — coalescing, caching, dispatch and resilience all
        apply per chunk, and one chunk runs one factorisation shared by
        its shifts.  A background thread waits for every chunk ticket
        and concatenates the shift axes back in grid order; the parent
        result is *not* cached (the chunks are the cache unit — a
        re-request re-stitches from chunk hits, and overlapping grids
        reuse any chunk they share).
        """
        assert job.spectral is not None
        cfg = self.config
        chunks = job.spectral.chunk_specs(cfg.spectral_chunk)
        span = _telemetry.start_span(
            "service.spectral",
            parent=ticket._span.context,
            n_omega=job.spectral.n_omega,
            chunks=len(chunks),
        )
        children: list[JobTicket] = []
        self._spectral_fanout.active = True
        try:
            # Submitting under the spectral span's context parents every
            # chunk's ``service.request`` span beneath it: the fan-out
            # reads as one stitched trace.
            with use_context(span.context):
                for chunk in chunks:
                    child = dataclasses.replace(job, spectral=chunk)
                    children.append(self.submit(child, priority=priority))
        except ServiceError as exc:
            # Same contract as a queue rejection of a plain job: the
            # caller sees the error; chunks already admitted complete
            # normally and land in the cache for the retry.
            span.set_attribute("error", type(exc).__name__)
            span.end()
            raise
        finally:
            self._spectral_fanout.active = False

        def stitch() -> None:
            try:
                results = [child.result() for child in children]
            except Exception as exc:
                # Never silent: the spectral span records which chunk
                # error surfaced, and the parent ticket carries it.
                span.set_attribute("error", type(exc).__name__)
                span.end()
                self._fail(ticket, exc)
                return
            t0 = time.perf_counter()
            # Chunks share the block index; shifts are axis 1.
            blocks = results[0].blocks.with_data(
                np.concatenate([r.blocks.data for r in results], axis=1)
            )
            stage_flops: dict[str, float] = {}
            for r in results:
                for stage, f in r.stage_flops.items():
                    stage_flops[stage] = stage_flops.get(stage, 0.0) + f
            # Chunk exec/flops were already absorbed into the service
            # metrics at chunk completion; the stitched totals live only
            # on the parent result for the caller's accounting.
            assert job.spectral is not None
            result = JobResult(
                fingerprint=job.fingerprint,
                selection=job.selection,
                blocks=blocks,
                stage_flops=stage_flops,
                exec_seconds=sum(r.exec_seconds for r in results),
                minor_faults=sum(r.minor_faults for r in results),
                rung=f"spectral({job.spectral.n_omega})",
            )
            self.metrics.spectral_stitch.observe(time.perf_counter() - t0)
            span.end()
            self._resolve(ticket, result)

        threading.Thread(
            target=stitch, name="spectral-stitch", daemon=True
        ).start()
        return ticket

    # -- delta fast path (Sherman–Morrison serving) ---------------------
    def _delta_state(
        self, base: JobResult, job: GreensJob
    ) -> tuple[PCyclicWoodbury, bool]:
        """The per-base Woodbury factorisation (LRU-cached) and whether
        this call built it.

        A cold base costs one CLS and one structured QR of the request's
        own ``b = L/c`` block reduced chain, a fraction of a full solve;
        the fingerprint probe has already proved ``job.c, job.q`` equal
        the base's.  The build runs in a ``service.delta.factor`` span
        under the ambient one.  The LRU keeps the last
        ``delta_solver_states`` bases.
        """
        key = base.fingerprint
        with self._delta_lock:
            state = self._delta_states.get(key)
            if state is not None:
                self._delta_states.move_to_end(key)
                return state, False
        assert base.h is not None
        with _telemetry.span("service.delta.factor", c=job.c, q=job.q):
            spec = job.spec
            base_field = HSField.from_buffer(
                np.frombuffer(base.h, dtype=np.int8), spec.L, spec.N
            )
            pc = spec.build_model().build_matrix(base_field, spec.sigma)
            state = PCyclicWoodbury(pc, job.c, job.q)
        with self._delta_lock:
            # A racing thread may have built the same state; keep the
            # first one so every request shares one factorisation.
            state = self._delta_states.setdefault(key, state)
            self._delta_states.move_to_end(key)
            while len(self._delta_states) > self.config.delta_solver_states:
                self._delta_states.popitem(last=False)
        return state, True

    def _try_delta(self, job: GreensJob, ticket: JobTicket) -> bool:
        """Serve ``job`` by a Woodbury update of its hinted base.

        Returns ``True`` only when the ticket was resolved.  Every
        abandoned attempt lands on the ``repro_delta_fallbacks_total``
        counter with a reason (``base-evicted`` / ``incompatible`` /
        ``depth`` / ``rank`` / ``residual`` / ``error``) and the request
        proceeds down the ordinary full-solve path.
        """
        cfg = self.config
        if not cfg.delta_updates or job.base_fingerprint is None:
            return False
        if job.spectral is not None:
            # Resolvent sweeps have no delta semantics: a Woodbury
            # update of an equal-time base says nothing about G(z).
            return False
        span = _telemetry.start_span(
            "service.delta",
            parent=ticket._span.context,
            base=job.base_fingerprint[:12],
            c=job.c,
        )

        def fallback(reason: str) -> bool:
            self.metrics.delta_fallbacks.labels(reason=reason).inc()
            span.set_attribute("fallback", reason)
            span.end()
            return False

        base = self.cache.peek(job.base_fingerprint)
        if base is None:
            self.metrics.delta_misses.inc()
            return fallback("base-evicted")
        if base.h is None:
            # Pre-v2 producer: no field stored, cannot diff against it.
            return fallback("incompatible")
        # Content-addressed compatibility: reconstruct the fingerprint
        # this job would have with the *base's* field.  A match proves
        # spec, c, pattern and q all agree — without storing the spec in
        # the cached result.
        try:
            probe = GreensJob(
                spec=job.spec, h=base.h, c=job.c,
                pattern=job.pattern, q=job.q,
            )
        except (TypeError, ValueError):
            return fallback("incompatible")
        if probe.fingerprint != job.base_fingerprint:
            return fallback("incompatible")
        if base.delta_depth + 1 > cfg.delta_max_depth:
            return fallback("depth")
        spec = job.spec
        h_base = np.frombuffer(base.h, dtype=np.int8).reshape(spec.L, spec.N)
        h_new = np.frombuffer(job.h, dtype=np.int8).reshape(spec.L, spec.N)
        model = spec.build_model()
        coupling = model.spin_factor(spec.sigma) * model.nu
        flips = diag_flips(h_base, h_new, coupling)
        rank = len(flips)
        span.set_attribute("rank", rank)
        if rank == 0 or rank > cfg.delta_rank_budget:
            return fallback("rank")
        try:
            t0 = time.perf_counter()
            with use_context(span.context):
                state, cold = self._delta_state(base, job)
                span.set_attribute("cold", cold)
                with FlopTracer() as tracer, _telemetry.stage("delta"):
                    blocks, report = state.update_blocks(base.blocks, flips)
            elapsed = time.perf_counter() - t0
        except Exception as exc:
            # A failed delta update is recoverable (the full solve runs
            # instead) but never silent: the span carries the exception
            # and the fallback counter records the occurrence.
            span.set_attribute("delta_error", repr(exc))
            return fallback("error")
        span.set_attribute("residual", report.solve_residual)
        span.set_attribute("capacitance_cond", report.capacitance_cond)
        if not report.healthy(cfg.delta_residual_tol, cfg.delta_cond_limit):
            return fallback("residual")
        result = JobResult(
            fingerprint=job.fingerprint,
            selection=job.selection,
            blocks=blocks,
            stage_flops={"delta": tracer.total_flops},
            exec_seconds=elapsed,
            rung=f"delta({rank})",
            h=job.h,
            delta_depth=base.delta_depth + 1,
        )
        if cfg.guards is not None:
            try:
                self._screen_result(result)
            except NumericalHealthError:
                return fallback("residual")
        self.cache.put(result)
        ticket.delta_hit = True
        self.metrics.delta_hits.inc()
        self.metrics.exec_time.observe(elapsed)
        self.metrics.absorb_stage_flops(result.stage_flops)
        span.end()
        self._resolve(ticket, result)
        return True

    # ------------------------------------------------------------------
    def _fail_entry(
        self, entry: QueueEntry, error: BaseException, counter=None
    ) -> None:
        """Resolve every ticket of a dead entry with ``error``."""
        with self._lock:
            current = self._inflight.get(entry.job.fingerprint)
            if current is entry:
                del self._inflight[entry.job.fingerprint]
            tickets = list(entry.tickets)
        for ticket in tickets:
            if counter is not None:
                counter.inc()
            self._fail(ticket, error)

    def _screen_result(self, result: JobResult) -> None:
        """Last line of defence before the cache: no poison gets stored.

        Worker-side guards should have caught non-finite blocks already,
        but the cache outlives any one worker — a corrupted result
        served from it would keep resurfacing, so the store is screened
        independently whenever guards are configured: one reduction over
        the result buffer, and a per-block scan only to name the block.
        """
        blocks = result.blocks
        if all_finite(blocks.data):
            return
        per_block = np.isfinite(blocks.data.reshape(len(blocks), -1)).all(axis=1)
        kl = list(blocks)[int(np.argmin(per_block))]
        raise NumericalHealthError(
            f"result block {kl} of {result.fingerprint[:12]} has"
            " non-finite entries",
            check="finite", site="result",
        )

    def _complete_entry(self, entry: QueueEntry, result: JobResult) -> None:
        """Cache the result, then resolve every coalesced ticket.

        Insertion order matters: the result must be in the cache
        *before* the fingerprint leaves the in-flight table, otherwise
        a racing submit could find neither and recompute.
        """
        plan = self.config.chaos_plan
        if plan is not None:
            rule = plan.decide("cache.store", entry.job.fingerprint)
            if rule is not None and rule.kind is FaultKind.CORRUPT:
                kl = next(iter(result.blocks))
                poisoned = result.blocks[kl].copy()
                poisoned.flat[0] = rule.corrupt_value
                result.blocks[kl] = poisoned
        if self.config.guards is not None:
            try:
                self._screen_result(result)
            except NumericalHealthError as exc:
                wrapped = JobFailedError(
                    f"result screening rejected {result.fingerprint[:12]}:"
                    f" {exc}"
                )
                wrapped.__cause__ = exc
                self._fail_entry(entry, wrapped)
                return
        self.cache.put(result)
        with self._lock:
            self._inflight.pop(entry.job.fingerprint, None)
            tickets = list(entry.tickets)
        for ticket in tickets:
            self._resolve(ticket, result)

    def _breaker_admit(self) -> bool:
        """Wait until the breaker lets a job through (or we're stopping).

        OPEN means *every* dispatch would burn a retry ladder against a
        dead pool; HALF_OPEN rations probes.  Returns ``False`` only
        when the service is stopping, so shutdown never wedges behind
        an open breaker.
        """
        while True:
            if self._breaker.allow():
                return True
            if self._stopping.is_set():
                return False
            wait = self._breaker.retry_after()
            self._stopping.wait(min(0.05, wait) if wait > 0 else 0.01)

    def _dispatch_loop(self) -> None:
        while True:
            entry = self._queue.get()
            if entry is None:
                return  # closed and drained
            self._dispatch(entry)

    def _dispatch(self, entry: QueueEntry) -> None:
        """Run one queue entry through the pool and resolve its tickets.

        A method of its own, so its result dies with the call: kept in
        the loop's frame, it would pin its pooled segment while the next
        entry's job leases one.
        """
        self.metrics.queue_wait.observe(
            max(0.0, time.monotonic() - entry.enqueued_at)
        )
        if not self._breaker_admit():
            self._fail_entry(entry, ServiceDegradedError(
                "service stopping while worker pool circuit breaker"
                " is open",
                retry_after=self._breaker.retry_after(),
            ))
            return
        self.metrics.batches.inc()
        # The dispatch span parents into the request's trace.  Its
        # context travels to the worker process so worker-side
        # spans stitch into the same trace.
        parent_ctx = entry.tickets[0]._span.context if entry.tickets else None
        if parent_ctx is not None:
            dispatch_span = _telemetry.start_span(
                "service.dispatch", parent=parent_ctx
            )
            trace_ctx = _telemetry.inject(dispatch_span.context)
        else:
            dispatch_span = _telemetry.null_span()
            trace_ctx = None
        try:
            result = self._pool.run(entry.job, trace_ctx=trace_ctx)
        except ServiceError as exc:
            if isinstance(exc, JobTimeoutError):
                self.metrics.timeouts.inc()
            # Crashes and timeouts are infrastructure failures: they
            # feed the breaker.  ServiceClosedError does not.
            if isinstance(exc, (JobTimeoutError, WorkerCrashError)):
                self._breaker.record_failure()
            dispatch_span.set_attribute("error", type(exc).__name__)
            dispatch_span.end()
            self._fail_entry(entry, exc)
            return
        except Exception as exc:  # worker-side computation error
            # The worker ran and raised: the *pool* is healthy.
            self._breaker.record_success()
            wrapped = JobFailedError(f"job execution failed: {exc!r}")
            wrapped.__cause__ = exc
            dispatch_span.set_attribute("error", type(exc).__name__)
            dispatch_span.end()
            self._fail_entry(entry, wrapped)
            return
        self._breaker.record_success()
        dispatch_span.end()
        self.metrics.executions.inc()
        self.metrics.exec_time.observe(result.exec_seconds)
        self.metrics.minor_faults.observe(result.minor_faults)
        self.metrics.absorb_stage_flops(result.stage_flops)
        if result.spans:
            # Re-absorb the worker process's spans into the global
            # collector, then strip them so cached results don't
            # replay stale spans on later hits.
            _telemetry.collector().add_many(result.spans)
            result.spans = []
        self._complete_entry(entry, result)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service-wide snapshot: metrics + queue depth + cache stats."""
        cache = self.cache.stats()
        data = self.metrics.stats()
        data["queue_depth"] = len(self._queue)
        data["inflight"] = len(self._inflight)
        data["cache"].update(
            {
                "entries": cache.entries,
                "bytes_used": cache.bytes_used,
                "bytes_budget": cache.bytes_budget,
                "evictions": cache.evictions,
                "drops": cache.drops,
            }
        )
        data["delta"]["states"] = len(self._delta_states)
        data["handoff"]["held_bytes"] = self._pool.segments.held_bytes()
        data["handoff"]["created"] = self._pool.segments.created
        data["parallel"] = self.budget.as_dict()
        return data

    def cache_stats(self) -> CacheStats:
        """The cache's occupancy, with the hit/miss counts of ``submit``."""
        return dataclasses.replace(
            self.cache.stats(),
            hits=int(self.metrics.cache_hits.value),
            misses=int(self.metrics.cache_misses.value),
        )

    def report(self) -> str:
        return self.metrics.report(queue_depth=len(self._queue))

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def state(self) -> ServiceState:
        """HEALTHY (breaker closed), DEGRADED (open/half-open), FAILED
        (shut down)."""
        if self._closed:
            return ServiceState.FAILED
        if self._breaker.state is BreakerState.CLOSED:
            return ServiceState.HEALTHY
        return ServiceState.DEGRADED

    def health(self) -> dict:
        """The ``/healthz`` payload: state, breaker, live counters."""
        state = self.state
        return {
            "state": state.name.lower(),
            "breaker": self._breaker.state.value,
            "retry_after": self._breaker.retry_after(),
            "breaker_trips": self._breaker.trips,
            "consecutive_failures": self._breaker.consecutive_failures,
            "queue_depth": len(self._queue),
            "inflight": len(self._inflight),
        }

    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the service.

        ``drain=True`` finishes everything already queued (new submits
        are refused immediately); ``drain=False`` fails queued tickets
        with :class:`ServiceClosedError` and cancels pool work.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stopping.set()
        if drain:
            self._queue.close()
            for thread in self._dispatchers:
                thread.join(timeout=timeout)
            self._pool.shutdown(wait=True)
        else:
            for entry in self._queue.drain():
                self._fail_entry(entry, ServiceClosedError("service shut down"))
            self._queue.close()
            # Tear the pool down first: dispatchers blocked on pool
            # futures only unblock once the work is cancelled.
            self._pool.shutdown(wait=False, cancel_futures=True)
            for thread in self._dispatchers:
                thread.join(timeout=timeout)
