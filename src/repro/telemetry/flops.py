"""Flop/byte accounting: stage frames and the tracers that read them.

Every linear-algebra kernel in :mod:`repro.core._kernels` reports its
flop count through :func:`record_flops`.  Inside a
:func:`repro.telemetry.stage` block the count lands in that stage's
:class:`Frame` on the calling thread (a lock-free add); the stage hands
the frame's totals over once, at exit, to every :class:`FlopTracer`
active on the thread, to its span and, with telemetry on, to the metric
registry.  Outside any stage a count credits the active tracers'
``default`` stage directly.

A :class:`FlopTracer` only reads: it collects the stages that close on
its thread while it is active, plus the stray counts, and keeps no
stage state of its own.  Tracers nest, and team threads adopt the
forking thread's tracers and frame through
:func:`repro.telemetry.capture_thread`.

Usage::

    with FlopTracer() as tr:
        with telemetry.stage("cls"):
            ...
        with telemetry.stage("bsofi"):
            ...
    tr.flops("cls"), tr.total_flops, tr.elapsed("cls")
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["FlopTracer", "current_tracers", "record_flops"]

#: Stage credited by counts recorded outside any stage.
_DEFAULT_STAGE = "default"


class _ThreadState(threading.local):
    """The calling thread's tracer stack and open stage frame."""

    def __init__(self) -> None:
        self.tracers: list[FlopTracer] = []
        self.frame: Frame | None = None


_local = _ThreadState()
_fold_lock = threading.Lock()


class Frame:
    """Flops, bytes and kernel calls counted inside one open stage.

    Written only by its own thread, so :func:`record_flops` adds without
    a lock; a team thread's frame is folded into the forking stage's
    frame (under a lock, once) when the thread leaves the team.
    """

    __slots__ = ("flops", "mem_bytes", "calls")

    def __init__(self) -> None:
        self.flops = 0.0
        self.mem_bytes = 0.0
        self.calls = 0

    def fold_into(self, parent: "Frame") -> None:
        with _fold_lock:
            parent.flops += self.flops
            parent.mem_bytes += self.mem_bytes
            parent.calls += self.calls


def current_tracers() -> tuple["FlopTracer", ...]:
    """The active tracer stack of the calling thread (innermost last)."""
    return tuple(_local.tracers)


def record_flops(flops: float, mem_bytes: float = 0.0) -> None:
    """Count one kernel call on the calling thread.

    Called by the instrumented kernels: an add to the open stage frame,
    else a ``default``-stage credit to each active tracer, else nothing.
    """
    frame = _local.frame
    if frame is not None:
        frame.flops += flops
        frame.mem_bytes += mem_bytes
        frame.calls += 1
        return
    for tracer in _local.tracers:
        tracer._add(_DEFAULT_STAGE, flops, mem_bytes, 1, 0.0)


@dataclass
class _StageStats:
    flops: float = 0.0
    mem_bytes: float = 0.0
    seconds: float = 0.0
    calls: int = 0


class FlopTracer:
    """Per-stage flops, bytes, kernel calls and wall time, as handed over
    by the stages that close on its thread while it is active.

    Stages do not nest semantically: a count belongs to the innermost
    open stage, while each stage's seconds cover its whole block.  Team
    threads adopted through :func:`repro.telemetry.capture_thread` report
    to the forking thread's tracers; any other thread is invisible.
    """

    def __init__(self) -> None:
        self._stages: dict[str, _StageStats] = {}
        self._lock = threading.Lock()

    def __enter__(self) -> "FlopTracer":
        _local.tracers.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        tracers = _local.tracers
        if tracers and tracers[-1] is self:
            tracers.pop()
        else:  # pragma: no cover - defensive
            tracers.remove(self)

    def _add(
        self, stage: str, flops: float, mem_bytes: float, calls: int,
        seconds: float,
    ) -> None:
        with self._lock:
            st = self._stages.get(stage)
            if st is None:
                st = self._stages[stage] = _StageStats()
            st.flops += flops
            st.mem_bytes += mem_bytes
            st.calls += calls
            st.seconds += seconds

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
