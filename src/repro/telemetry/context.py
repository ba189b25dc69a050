"""Trace context: ids, the ambient context stack, cross-process carriers.

A :class:`SpanContext` is the portable identity of a span — ``(trace_id,
span_id, sampled)`` — and the *only* thing that ever crosses a thread,
rank or process boundary.  Everything else about a span (timings,
attributes) stays in the process that recorded it and is stitched back
together by trace id at export time.

The *ambient* context is a per-thread stack: :func:`current_context`
returns the innermost entry, and new spans parent themselves to it by
default.  Fan-out layers propagate it explicitly:

* ``parallel_for`` workers re-enter the forking thread's context
  through :func:`repro.telemetry.capture_thread`
  (:mod:`repro.parallel.openmp`);
* SimMPI rank threads do the same (:mod:`repro.transport.threads`);
* process workers receive a :meth:`SpanContext.to_dict` carrier inside
  the batch dispatch and re-activate it with
  :func:`repro.telemetry.runtime.activate_remote`.
"""

from __future__ import annotations

import secrets
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "SpanContext",
    "current_context",
    "use_context",
    "new_trace_id",
    "new_span_id",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id (hex), unique across processes."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A fresh 64-bit span id (hex)."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of a span.

    ``sampled`` implements head-based sampling: the decision is made
    once at the trace root and every descendant — across threads, ranks
    and processes — inherits it, so a trace is always recorded either
    completely or not at all.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_dict(self) -> dict:
        """Picklable/JSON-able carrier for cross-process propagation."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            sampled=bool(data.get("sampled", True)),
        )


_tls = threading.local()


def _stack() -> list[SpanContext]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_context() -> SpanContext | None:
    """The calling thread's innermost active span context (or ``None``)."""
    stack = getattr(_tls, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextmanager
def use_context(ctx: SpanContext | None) -> Iterator[SpanContext | None]:
    """Make ``ctx`` the ambient context for the calling thread.

    Used by fan-out layers to hand a parent context to worker threads.
    ``use_context(None)`` is a no-op, so callers can pass through an
    absent context without branching.
    """
    if ctx is None:
        yield None
        return
    stack = _stack()
    stack.append(ctx)
    try:
        yield ctx
    finally:
        if stack and stack[-1] is ctx:
            stack.pop()
        else:  # pragma: no cover - defensive
            stack.remove(ctx)
