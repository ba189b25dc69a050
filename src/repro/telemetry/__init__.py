"""Unified tracing & metrics for the FSI reproduction.

The subsystem has three halves:

* **spans** — hierarchical, context-propagated trace spans that survive
  thread fan-out (``parallel_for``), SimMPI rank loops and the service's
  worker processes, so one request is one stitched trace from scheduler
  to CLS/BSOFI/WRP stages;
* **metrics** — a registry of counters/gauges/histograms with labels
  that :class:`repro.service.metrics.ServiceMetrics`,
  :class:`repro.transport.CommStats` and :func:`stage` re-register
  into;
* **exporters** — Chrome trace-event JSON, Prometheus text exposition
  (HTTP or file) and JSONL span logs.

Telemetry is **off by default**; instrumented hot paths then cost one
attribute check (see :mod:`benchmarks.bench_telemetry`, which gates
this).  Turn it on with :func:`configure`::

    from repro import telemetry

    telemetry.configure(sample_rate=1.0)
    with telemetry.span("my.phase", n=64):
        ...
    telemetry.collector().snapshot()   # finished span records

Algorithm stages use :func:`stage` instead of :func:`span`: the same
span, plus a frame that counts the stage's flops.  At exit the stage
hands its flops, bytes and seconds to the span, to every active
:class:`FlopTracer` (a pure reader) and to the registry.

See ``docs/telemetry.md`` for the full tour.
"""

from .context import (
    SpanContext,
    current_context,
    new_span_id,
    new_trace_id,
    use_context,
)
from .exporters import (
    MetricsServer,
    chrome_trace_events,
    prometheus_text,
    spans_to_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .flops import FlopTracer, current_tracers, record_flops
from .metrics import Counter, Gauge, Histogram, MetricFamily, MetricRegistry
from .runtime import (
    activate_remote,
    capture_thread,
    collector,
    configure,
    disable,
    enabled,
    get_tracer,
    inject,
    null_span,
    registry,
    reset,
    span,
    stage,
    start_span,
)
from .spans import NULL_SPAN, Span, TraceCollector, Tracer

__all__ = [
    # context
    "SpanContext",
    "current_context",
    "use_context",
    "new_trace_id",
    "new_span_id",
    # spans
    "Span",
    "Tracer",
    "TraceCollector",
    "NULL_SPAN",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    # runtime
    "configure",
    "disable",
    "reset",
    "enabled",
    "span",
    "stage",
    "capture_thread",
    "start_span",
    "inject",
    "activate_remote",
    "collector",
    "registry",
    "get_tracer",
    "null_span",
    # exporters
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_to_jsonl",
    "write_jsonl",
    "prometheus_text",
    "MetricsServer",
    # flop accounting
    "FlopTracer",
    "current_tracers",
    "record_flops",
]
