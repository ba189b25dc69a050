"""Service metrics: counters, latency histograms, periodic reports.

Since the telemetry subsystem landed, :class:`ServiceMetrics` is a thin
facade over a :class:`repro.telemetry.MetricRegistry`: every counter
and histogram is a registered metric family (``repro_jobs_submitted_
total``, ``repro_request_latency_seconds``, ...), so the same numbers
that drive :meth:`ServiceMetrics.report` are exposed in Prometheus text
format by the ``serve`` CLI (``--metrics-port``/``--metrics-file``).
The attribute API is unchanged — ``metrics.submitted.inc()``,
``metrics.latency.observe(dt)`` — because label-less families delegate
to their single child primitive.

The primitives themselves (:class:`Counter`, :class:`Histogram`) are
re-exported from :mod:`repro.telemetry.metrics`; histogram snapshots
are computed under a single lock acquisition, so concurrent observers
can never produce a torn (mutually inconsistent) snapshot.

Stage flops arrive with each result: workers count them per
:func:`repro.telemetry.stage` and ship them back as
``JobResult.stage_flops``, which :meth:`ServiceMetrics.absorb_stage_flops`
folds into the ``repro_stage_flops_total{stage=...}`` counter family.
Each dispatch's handoff arrives the same way, on its
:class:`~repro.service.handoff.Parcel`: :meth:`ServiceMetrics.
absorb_handoff` counts its way and observes the worker's export time.
"""

from __future__ import annotations

import time

from ..telemetry.metrics import Counter, Histogram, MetricRegistry
from .handoff import WAYS

__all__ = ["Counter", "Histogram", "ServiceMetrics"]


class ServiceMetrics:
    """All counters/histograms of one :class:`GreensService` instance.

    Parameters
    ----------
    registry:
        The :class:`MetricRegistry` to register into.  Defaults to a
        fresh private registry so independent service instances (and
        tests) never share counts; the ``serve`` CLI passes this
        registry to the metrics endpoint for scraping.
    """

    def __init__(self, registry: MetricRegistry | None = None) -> None:
        # Two clocks, two jobs: the epoch birth time is for *reporting*
        # (operators correlating a service start with external logs) and
        # is the one allowlisted time.time() call outside telemetry
        # (lint rule RPR002); uptime is *measured* on the monotonic
        # clock so NTP steps can never make it jump or go negative in
        # Prometheus//healthz output.
        self.started_at_epoch = time.time()
        self._started_mono = time.monotonic()
        self.registry = registry if registry is not None else MetricRegistry()
        r = self.registry
        # request lifecycle
        self.submitted = r.counter(
            "repro_jobs_submitted_total", "Jobs submitted to the service"
        )
        self.completed = r.counter(
            "repro_jobs_completed_total", "Jobs resolved successfully"
        )
        self.failed = r.counter("repro_jobs_failed_total", "Jobs failed")
        self.cache_hits = r.counter(
            "repro_cache_hits_total", "Result-cache hits"
        )
        self.cache_misses = r.counter(
            "repro_cache_misses_total", "Result-cache misses"
        )
        self.coalesced = r.counter(
            "repro_jobs_coalesced_total",
            "Submissions coalesced onto an in-flight identical job",
        )
        # delta serving (Sherman–Morrison fast path)
        self.delta_hits = r.counter(
            "repro_delta_hits_total",
            "Requests served by a Sherman–Morrison delta update",
        )
        self.delta_misses = r.counter(
            "repro_delta_misses_total",
            "Delta attempts whose hinted base was no longer cached",
        )
        self.delta_fallbacks = r.counter(
            "repro_delta_fallbacks_total",
            "Delta attempts abandoned to a full solve",
            labels=("reason",),
        )
        # spectral serving (resolvent omega-grid workload)
        self.spectral_requests = r.counter(
            "repro_spectral_requests_total",
            "Client-facing spectral (omega-grid) requests submitted",
        )
        self.spectral_chunks = r.counter(
            "repro_spectral_chunks_total",
            "Omega-grid chunk jobs admitted (fan-out pieces and"
            " single-chunk grids alike)",
        )
        self.spectral_stitch = r.histogram(
            "repro_spectral_stitch_seconds",
            "Time concatenating chunk results back into grid order",
        )
        self.shed = r.counter(
            "repro_jobs_shed_total", "Queue entries shed under backpressure"
        )
        self.rejected = r.counter(
            "repro_jobs_rejected_total", "Submissions rejected (queue full)"
        )
        # execution
        self.executions = r.counter(
            "repro_executions_total", "FSI computations actually run"
        )
        #: Dispatches to the worker pool, one job each; named
        #: ``batches`` in ``stats()``, which the benchmark harness reads.
        self.batches = r.counter(
            "repro_batches_total", "Jobs dispatched to the worker pool"
        )
        self.retries = r.counter(
            "repro_retries_total", "Dispatch retries after worker failure"
        )
        self.timeouts = r.counter(
            "repro_timeouts_total", "Dispatches abandoned on timeout"
        )
        # result handoff (counted here from each dispatch's parcel)
        self._handoffs = r.counter(
            "repro_result_handoff_total",
            "Dispatches by how their results came back from the worker",
            labels=("way",),
        )
        self.export_time = r.histogram(
            "repro_handoff_export_seconds",
            "Worker-side time handing a dispatch's results over",
        )
        # latencies (seconds)
        self.latency = r.histogram(
            "repro_request_latency_seconds",
            "Submit-to-resolution request latency",
        )
        self.queue_wait = r.histogram(
            "repro_queue_wait_seconds", "Submit-to-dispatch queue wait"
        )
        self.exec_time = r.histogram(
            "repro_exec_seconds", "Worker-side job execution time"
        )
        # flop accounting (per-stage flops shipped with each result)
        self._stage_flops = r.counter(
            "repro_stage_flops_total",
            "Floating-point operations per algorithm stage",
            labels=("stage",),
        )

    # ------------------------------------------------------------------
    def absorb_stage_flops(self, stage_flops: dict[str, float]) -> None:
        """Fold a result's ``stage_flops`` into the service totals."""
        for stage, flops in stage_flops.items():
            self._stage_flops.labels(stage=stage).inc(float(flops))

    def absorb_handoff(self, way: str, export_seconds: float) -> None:
        """Count how one dispatch's result came back (a
        :attr:`~repro.service.handoff.Parcel.way`) and time its export."""
        self._handoffs.labels(way=way).inc()
        self.export_time.observe(export_seconds)

    def handoffs(self) -> dict[str, float]:
        """Dispatches per handoff way, every way present."""
        counts = {way: 0.0 for way in WAYS}
        for values, child in self._handoffs.samples():
            counts[values[0]] = child.value
        return counts

    @property
    def total_flops(self) -> float:
        return sum(child.value for _, child in self._stage_flops.samples())

    def stage_flops(self) -> dict[str, float]:
        return {
            values[0]: child.value
            for values, child in self._stage_flops.samples()
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One consistent-enough snapshot of every metric."""
        total_lookups = self.cache_hits.value + self.cache_misses.value
        delta_fallbacks = {
            values[0]: child.value
            for values, child in self.delta_fallbacks.samples()
        }
        return {
            "started_at_epoch": self.started_at_epoch,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "failed": self.failed.value,
            "coalesced": self.coalesced.value,
            "shed": self.shed.value,
            "rejected": self.rejected.value,
            "executions": self.executions.value,
            "batches": self.batches.value,
            "retries": self.retries.value,
            "timeouts": self.timeouts.value,
            "cache": {
                "hits": self.cache_hits.value,
                "misses": self.cache_misses.value,
                "hit_rate": (
                    self.cache_hits.value / total_lookups if total_lookups else 0.0
                ),
            },
            "delta": {
                "hits": self.delta_hits.value,
                "misses": self.delta_misses.value,
                "fallbacks": delta_fallbacks,
            },
            "spectral": {
                "requests": self.spectral_requests.value,
                "chunks": self.spectral_chunks.value,
                "stitch_seconds": self.spectral_stitch.snapshot(),
            },
            "latency_seconds": self.latency.snapshot(),
            "queue_wait_seconds": self.queue_wait.snapshot(),
            "exec_seconds": self.exec_time.snapshot(),
            "handoff": {
                **self.handoffs(),
                "export_seconds": self.export_time.snapshot(),
            },
            "flops": {"total": self.total_flops, "stages": self.stage_flops()},
        }

    def report(self, queue_depth: int | None = None) -> str:
        """Human-readable text block (the periodic ``serve`` report)."""
        s = self.stats()
        lat, cache = s["latency_seconds"], s["cache"]
        lines = [
            f"service up {s['uptime_seconds']:.1f}s:"
            f" submitted={s['submitted']} completed={s['completed']}"
            f" failed={s['failed']} coalesced={s['coalesced']}"
            f" shed={s['shed']} rejected={s['rejected']}",
            f"  exec: {s['executions']} runs in {s['batches']} dispatches,"
            f" retries={s['retries']} timeouts={s['timeouts']}",
            f"  cache: hit rate {cache['hit_rate'] * 100:5.1f}%"
            f" ({cache['hits']} hits / {cache['misses']} misses)",
            f"  delta: {s['delta']['hits']} served /"
            f" {s['delta']['misses']} missed, fallbacks="
            + (
                " ".join(
                    f"{k}:{int(v)}"
                    for k, v in sorted(s["delta"]["fallbacks"].items())
                )
                or "none"
            ),
            f"  spectral: {s['spectral']['requests']} requests /"
            f" {s['spectral']['chunks']} chunks",
            f"  latency: p50 {lat['p50'] * 1e3:8.2f} ms"
            f"  p95 {lat['p95'] * 1e3:8.2f} ms"
            f"  p99 {lat['p99'] * 1e3:8.2f} ms"
            f"  max {lat['max'] * 1e3:8.2f} ms",
            f"  flops: {s['flops']['total']:.3e} total "
            + " ".join(
                f"{k}={v:.2e}" for k, v in sorted(s["flops"]["stages"].items())
            ),
        ]
        if queue_depth is not None:
            lines.insert(1, f"  queue depth: {queue_depth}")
        return "\n".join(lines)
