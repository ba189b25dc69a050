"""Process-global telemetry state and the instrumentation entry points.

Instrumented code throughout the repo calls the module-level helpers —
:func:`span`, :func:`stage`, :func:`start_span`, :func:`inject` — which
consult one process-global :class:`_State`.  When telemetry is disabled (the
default) every helper short-circuits on a single attribute check and
returns the shared no-op span, so hot paths pay essentially nothing;
:mod:`benchmarks.bench_telemetry` measures and gates exactly this.

:func:`stage` is the one stage instrument.  It owns the stage's span
and its flop frame (:mod:`repro.telemetry.flops`), and at exit hands
the frame's totals to the span, to the active
:class:`~repro.telemetry.flops.FlopTracer` readers and to the registry.
Thread teams re-enter the forking thread's tracers, frame and span
context through :func:`capture_thread`.

Cross-process flow (the service's worker pool):

1. the scheduler calls :func:`inject` on its dispatch span and ships
   the resulting dict alongside the batch;
2. the worker process wraps execution in :func:`activate_remote`,
   which temporarily enables telemetry into a private collector with
   the shipped context as ambient parent;
3. the worker returns the drained records inside its results and the
   scheduler feeds them into the global collector — one stitched trace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, ContextManager, Iterator

from . import flops as _flops
from .context import SpanContext, current_context, use_context
from .flops import Frame
from .metrics import MetricRegistry
from .spans import NULL_SPAN, Span, TraceCollector, Tracer, _AMBIENT

__all__ = [
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
]


class _State:
    __slots__ = ("enabled", "tracer", "collector", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.collector = TraceCollector()
        self.tracer = Tracer(self.collector)
        self.registry = MetricRegistry()


_state = _State()


def configure(
    enabled: bool = True,
    sample_rate: float = 1.0,
    collector: TraceCollector | None = None,
    registry: MetricRegistry | None = None,
    seed: int | None = None,
) -> None:
    """Turn telemetry on (or re-tune it).

    ``sample_rate`` is the head-based probability that a new trace is
    recorded; ``collector``/``registry`` replace the process-global
    instances when given (tests use this for isolation).
    """
    if collector is not None:
        _state.collector = collector
    if registry is not None:
        _state.registry = registry
    _state.tracer = Tracer(_state.collector, sample_rate=sample_rate, seed=seed)
    _state.enabled = enabled


def disable() -> None:
    """Stop recording; already-collected spans/metrics are kept."""
    _state.enabled = False


def reset() -> None:
    """Fresh disabled state: new collector, registry and tracer."""
    _state.enabled = False
    _state.collector = TraceCollector()
    _state.tracer = Tracer(_state.collector)
    _state.registry = MetricRegistry()


def enabled() -> bool:
    return _state.enabled


def collector() -> TraceCollector:
    return _state.collector


def registry() -> MetricRegistry:
    return _state.registry


def get_tracer() -> Tracer:
    return _state.tracer


def span(name: str, **attributes: Any):
    """Context manager for an ambient span (no-op when disabled).

    The disabled path is the hot-path contract: one attribute check,
    then the shared null span — no allocation, no id generation.
    """
    if not _state.enabled:
        return NULL_SPAN
    return _state.tracer.span(name, **attributes)


def stage(name: str, **attributes: Any):
    """Context manager for one algorithm stage; the only stage instrument.

    Opens the ambient span ``name`` and a :class:`~.flops.Frame` that
    counts the flops, bytes and kernel calls recorded inside the block.
    At exit the frame's totals and the block's wall time go, once, to
    every :class:`~repro.telemetry.flops.FlopTracer` active on the
    thread, to the span (``flops`` and ``bytes`` attributes) and, with
    telemetry on, to ``repro_stage_flops_total{stage}`` and
    ``repro_stage_seconds_total{stage}``.  With telemetry off and no
    tracer on the thread it returns the shared null span.
    """
    if not _state.enabled and not _flops._local.tracers:
        return NULL_SPAN
    return _Stage(name, span(name, **attributes))


class _Stage(Frame):
    """One open :func:`stage`: its frame, its span and its wall clock."""

    __slots__ = ("name", "_span_cm", "_span", "_outer", "_t0")

    def __init__(self, name: str, span_cm: ContextManager[Any]) -> None:
        super().__init__()
        self.name = name
        self._span_cm = span_cm

    def __enter__(self) -> Any:
        self._span = self._span_cm.__enter__()
        local = _flops._local
        self._outer, local.frame = local.frame, self
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, *exc: Any) -> Any:
        seconds = time.perf_counter() - self._t0
        local = _flops._local
        local.frame = self._outer
        name, flops = self.name, self.flops
        for tracer in local.tracers:
            tracer._add(name, flops, self.mem_bytes, self.calls, seconds)
        self._span.set_attribute("flops", flops)
        self._span.set_attribute("bytes", self.mem_bytes)
        if _state.enabled:
            for family, help_, value in (
                ("repro_stage_flops_total", "Floating-point operations", flops),
                ("repro_stage_seconds_total", "Wall seconds", seconds),
            ):
                _state.registry.counter(
                    family, f"{help_} per algorithm stage", labels=("stage",)
                ).labels(stage=name).inc(value)
        return self._span_cm.__exit__(*exc)


def capture_thread() -> Callable[[], ContextManager[None]]:
    """Snapshot the calling thread's telemetry for a team of threads.

    Captures the tracer stack, the open stage frame and the ambient
    span context.  The returned callable re-enters them on a team
    thread with a fresh frame of its own, which it folds into the
    captured frame on exit: the team's flops land in the stage that
    forked it, and its spans parent into the caller's trace.  The
    forking thread must wait for the team before it closes the stage.
    """
    local = _flops._local
    tracers = tuple(local.tracers)
    parent = local.frame
    ctx = current_context()

    @contextmanager
    def adopt() -> Iterator[None]:
        local = _flops._local
        outer = local.tracers, local.frame
        local.tracers = [*outer[0], *tracers]
        frame = local.frame = Frame() if parent is not None else None
        try:
            with use_context(ctx):
                yield
        finally:
            local.tracers, local.frame = outer
            if frame is not None:
                frame.fold_into(parent)

    return adopt


def start_span(name: str, parent: Any = _AMBIENT, **attributes: Any):
    """Manually-ended span (no-op when disabled); caller calls ``end``.

    Unlike :func:`span` this never touches the ambient stack — it is
    for spans whose lifetime crosses threads, like a service request
    span that is started at submit and ended at ticket resolution.
    """
    if not _state.enabled:
        return NULL_SPAN
    return _state.tracer.start_span(name, parent=parent, **attributes)


def inject(ctx: SpanContext | None = None) -> dict | None:
    """Serialize a context (default: the ambient one) for dispatch.

    Returns ``None`` when telemetry is disabled or there is nothing to
    propagate, which receivers treat as "do not record".
    """
    if not _state.enabled:
        return None
    if ctx is None:
        ctx = current_context()
    return ctx.to_dict() if ctx is not None else None


@contextmanager
def activate_remote(carrier: dict | None) -> Iterator[TraceCollector | None]:
    """Worker-process side of cross-process propagation.

    Re-activates a shipped span context: telemetry is temporarily
    enabled into a *private* collector with the carrier as ambient
    parent, so every span the worker records lands in one place the
    caller can drain and ship back.  Yields that collector, or ``None``
    when the carrier is absent/unsampled (record nothing).  The
    previous global state is restored on exit — worker processes are
    recycled, so leaking state across batches would cross-wire traces.
    """
    if not carrier or not carrier.get("sampled", True):
        yield None
        return
    ctx = SpanContext.from_dict(carrier)
    local = TraceCollector()
    prev_enabled = _state.enabled
    prev_collector = _state.collector
    prev_tracer = _state.tracer
    _state.collector = local
    _state.tracer = Tracer(local, sample_rate=1.0)
    _state.enabled = True
    try:
        with use_context(ctx):
            yield local
    finally:
        _state.enabled = prev_enabled
        _state.collector = prev_collector
        _state.tracer = prev_tracer


def null_span() -> Span:
    """The shared no-op span (exposed for benchmarks/tests)."""
    return NULL_SPAN  # type: ignore[return-value]
