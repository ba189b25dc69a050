"""Flop/byte accounting for algorithm stages (registry-backed).

Every linear-algebra kernel in :mod:`repro.core._kernels` reports its
flop count to the innermost active :class:`FlopTracer`, tagged with the
calling thread's stage label.  Tracers nest; each sees everything run
inside its ``with`` block.  Instrumented code opens stages through
:func:`repro.telemetry.stage` (span + stage together), and team threads
inherit the forking thread's tracers and stage through
:func:`repro.telemetry.capture_thread`.  On exit a tracer flushes its
per-stage totals into ``repro_stage_flops_total{stage}`` and
``repro_stage_seconds_total{stage}`` when telemetry is enabled.

Usage::

    with FlopTracer() as tr:
        with tr.stage("cls"):
            ...
        with tr.stage("bsofi"):
            ...
    tr.flops("cls"), tr.total_flops, tr.elapsed("cls")
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["FlopTracer", "current_tracers", "record_flops"]

_local = threading.local()

#: Stage label used when no ``stage()`` block is active on the thread.
_DEFAULT_STAGE = "default"


def _stack() -> list["FlopTracer"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def current_tracers() -> tuple["FlopTracer", ...]:
    """The active tracer stack of the calling thread (innermost last)."""
    return tuple(_stack())


def record_flops(flops: float, mem_bytes: float = 0.0) -> None:
    """Report an operation to every active tracer on this thread.

    Called by the instrumented kernels; a no-op when no tracer is
    active, so production code pays only an attribute lookup.
    """
    for tracer in _stack():
        tracer._record(flops, mem_bytes)


@dataclass
class _StageStats:
    flops: float = 0.0
    mem_bytes: float = 0.0
    seconds: float = 0.0
    calls: int = 0


class FlopTracer:
    """Accumulates flops, bytes and wall time per named stage.

    Thread-aware: a tracer entered on one thread can adopt worker
    threads via :meth:`attach_thread` (used by the OpenMP-style layer so
    that flops performed inside ``parallel_for`` bodies are credited to
    the enclosing tracer).  The active stage label is per-thread, so
    stages on different threads never interfere.
    """

    def __init__(self) -> None:
        self._stages: dict[str, _StageStats] = {}
        self._stage_tls = threading.local()
        self._lock = threading.Lock()
        self._entered_at: float | None = None
        #: Per-stage ``(flops, seconds)`` already folded into the registry.
        self._flushed: dict[str, tuple[float, float]] = {}
        self.total_seconds: float = 0.0

    # -- context management -------------------------------------------
    def __enter__(self) -> "FlopTracer":
        _stack().append(self)
        self._entered_at = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._entered_at is not None:
            self.total_seconds += time.perf_counter() - self._entered_at
            self._entered_at = None
        self._pop()
        self._flush_to_registry()

    def _pop(self) -> None:
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - defensive
            stack.remove(self)

    @contextmanager
    def _label(self, name: str | None) -> Iterator[None]:
        """Set the calling thread's stage label for the block (``None``
        leaves it alone)."""
        if name is None:
            yield
            return
        tls = self._stage_tls
        had_stage, prev = hasattr(tls, "name"), getattr(tls, "name", None)
        tls.name = name
        try:
            yield
        finally:
            if had_stage:
                tls.name = prev
            else:
                del tls.name

    @contextmanager
    def attach_thread(self, stage: str | None = None) -> Iterator[None]:
        """Make this tracer active on the *current* (worker) thread.

        ``stage`` seeds the worker thread's stage label — fan-out
        layers pass the forking thread's active stage so work done by
        the team is attributed to the stage that spawned it.
        """
        _stack().append(self)
        try:
            with self._label(stage):
                yield
        finally:
            self._pop()

    @property
    def current_stage(self) -> str:
        """The calling thread's active stage label."""
        return getattr(self._stage_tls, "name", _DEFAULT_STAGE)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Attribute everything inside the block to stage ``name``.

        Stage labels do not nest semantically: the innermost label wins.
        Wall time of the block is added to the stage.  The label is
        thread-local — it applies to the calling thread (and to worker
        threads that inherit it via ``attach_thread(stage=...)``),
        never to unrelated threads recording concurrently.
        """
        t0 = time.perf_counter()
        try:
            with self._label(name):
                yield
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                self._stats(name).seconds += dt

    # -- recording ------------------------------------------------------
    def _stats(self, name: str) -> _StageStats:
        st = self._stages.get(name)
        if st is None:
            st = self._stages[name] = _StageStats()
        return st

    def _record(self, flops: float, mem_bytes: float) -> None:
        name = self.current_stage
        with self._lock:
            st = self._stats(name)
            st.flops += flops
            st.mem_bytes += mem_bytes
            st.calls += 1

    def _flush_to_registry(self) -> None:
        """Fold per-stage totals into the telemetry metric registry.

        Runs on tracer exit (never per kernel call) and only when
        telemetry is enabled.  Flops and seconds are flushed as separate
        deltas for every stage, so re-entering the same tracer never
        double-counts and a stage without flops still exports its time.
        """
        from . import runtime

        if not runtime.enabled():
            return
        registry = runtime.registry()
        flop_family = registry.counter(
            "repro_stage_flops_total",
            "Floating-point operations per algorithm stage",
            labels=("stage",),
        )
        seconds_family = registry.counter(
            "repro_stage_seconds_total",
            "Wall seconds per algorithm stage",
            labels=("stage",),
        )
        with self._lock:
            deltas = []
            for name, st in self._stages.items():
                done_flops, done_seconds = self._flushed.get(name, (0.0, 0.0))
                deltas.append(
                    (name, st.flops - done_flops, st.seconds - done_seconds)
                )
                self._flushed[name] = (st.flops, st.seconds)
        for name, flops, seconds in deltas:
            flop_family.labels(stage=name).inc(flops)
            seconds_family.labels(stage=name).inc(seconds)

    # -- queries ----------------------------------------------------------
    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(self._stages)

    def flops(self, stage: str | None = None) -> float:
        """Flops recorded for ``stage`` (or everything when ``None``)."""
        if stage is None:
            return self.total_flops
        st = self._stages.get(stage)
        return st.flops if st else 0.0

    def mem_bytes(self, stage: str | None = None) -> float:
        if stage is None:
            return sum(s.mem_bytes for s in self._stages.values())
        st = self._stages.get(stage)
        return st.mem_bytes if st else 0.0

    def elapsed(self, stage: str) -> float:
        """Wall seconds spent inside ``stage`` blocks."""
        st = self._stages.get(stage)
        return st.seconds if st else 0.0

    def calls(self, stage: str) -> int:
        st = self._stages.get(stage)
        return st.calls if st else 0

    @property
    def total_flops(self) -> float:
        return sum(s.flops for s in self._stages.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-stage dict of flops / bytes / seconds / calls."""
        return {
            name: {
                "flops": st.flops,
                "mem_bytes": st.mem_bytes,
                "seconds": st.seconds,
                "calls": float(st.calls),
            }
            for name, st in self._stages.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{name}={st.flops:.3g}f/{st.seconds:.3g}s"
            for name, st in self._stages.items()
        )
        return f"FlopTracer({parts})"
