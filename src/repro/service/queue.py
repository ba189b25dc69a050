"""Bounded priority queue with admission control for the scheduler.

The queue is the service's backpressure point.  Capacity is finite and
what happens at the boundary is a configurable policy
(:class:`BackpressurePolicy`):

* ``BLOCK`` — the submitting thread waits for space (closed-loop
  clients, e.g. a DQMC sweep that cannot usefully run ahead);
* ``REJECT`` — refuse the new request (:class:`QueueFullError`), the
  classic load-shedding answer for open-loop traffic;
* ``SHED_LOWEST`` — evict the lowest-priority queued request to admit a
  higher-priority one (the evicted request fails with
  :class:`JobSheddedError`); if the newcomer does not beat the worst
  queued entry it is itself rejected.

Ordering is highest priority first, FIFO within a priority level
(stable: ties broken by submission sequence number).  Capacities are
small (tens to thousands), so shedding scans the heap linearly rather
than maintaining a second index.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import QueueFullError, ServiceClosedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job import GreensJob

__all__ = ["BackpressurePolicy", "QueueEntry", "BoundedPriorityQueue"]


class BackpressurePolicy(Enum):
    """What a full queue does with the next submission."""

    BLOCK = "block"
    REJECT = "reject"
    SHED_LOWEST = "shed-lowest"


@dataclass(order=True)
class QueueEntry:
    """One queued unit of work: a job plus every coalesced waiter.

    Orders by ``(-priority, seq)`` so ``heapq`` pops highest priority
    first and FIFO within a level.  ``tickets`` is managed by the
    scheduler under its own lock.
    """

    sort_key: tuple[int, int] = field(init=False, repr=False)
    priority: int
    seq: int
    job: "GreensJob" = field(compare=False)
    tickets: list = field(compare=False, default_factory=list)
    enqueued_at: float = field(compare=False, default_factory=time.monotonic)

    def __post_init__(self) -> None:
        self.sort_key = (-self.priority, self.seq)


class BoundedPriorityQueue:
    """The scheduler's work queue (thread-safe, closable)."""

    def __init__(
        self,
        capacity: int,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._heap: list[QueueEntry] = []
        self._cv = threading.Condition()
        self._closed = False
        self._seq = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._cv:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def next_seq(self) -> int:
        with self._cv:
            self._seq += 1
            return self._seq

    # ------------------------------------------------------------------
    def put(self, entry: QueueEntry, timeout: float | None = None) -> QueueEntry | None:
        """Admit ``entry`` under the configured policy.

        Returns the entry *shed* to make room (``SHED_LOWEST`` only) so
        the caller can fail its waiters; ``None`` otherwise.  Raises
        :class:`QueueFullError` when admission is refused and
        :class:`ServiceClosedError` when the queue is closing.
        """
        with self._cv:
            if self._closed:
                raise ServiceClosedError("queue is closed")
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
                self._cv.notify()
                return None

            if self.policy is BackpressurePolicy.BLOCK:
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._heap) >= self.capacity:
                    if self._closed:
                        raise ServiceClosedError("queue closed while blocked")
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise QueueFullError(
                            f"queue full ({self.capacity}) after {timeout}s"
                        )
                    self._cv.wait(timeout=remaining)
                heapq.heappush(self._heap, entry)
                self._cv.notify()
                return None

            if self.policy is BackpressurePolicy.REJECT:
                raise QueueFullError(f"queue full (capacity {self.capacity})")

            # SHED_LOWEST: evict the worst queued entry if strictly worse
            # than the newcomer, else refuse the newcomer.
            worst = max(self._heap)
            if entry < worst:
                self._heap.remove(worst)
                heapq.heapify(self._heap)
                heapq.heappush(self._heap, entry)
                self._cv.notify()
                return worst
            raise QueueFullError(
                f"queue full and priority {entry.priority} does not beat"
                f" the lowest queued priority {worst.priority}"
            )

    # ------------------------------------------------------------------
    def get(self) -> QueueEntry | None:
        """Pop the highest-priority entry.

        Blocks until work arrives; returns ``None`` once the queue is
        closed *and* drained (the dispatcher's exit signal).
        """
        with self._cv:
            while not self._heap:
                if self._closed:
                    return None
                self._cv.wait()
            entry = heapq.heappop(self._heap)
            # Wake producers blocked on a full queue.
            self._cv.notify_all()
            return entry

    def drain(self) -> list[QueueEntry]:
        """Remove and return every queued entry (shutdown without drain)."""
        with self._cv:
            entries = sorted(self._heap)
            self._heap = []
            self._cv.notify_all()
            return entries

    def close(self) -> None:
        """Stop admissions and wake every blocked producer/consumer."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
