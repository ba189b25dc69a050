"""Service health: circuit breaker and HEALTHY/DEGRADED/FAILED states.

A worker pool that is crashing or timing out on every batch should not
keep accepting new compute — each doomed dispatch burns a retry ladder
and a timeout before failing, so a backlog forms behind a dead pool
and the service *wedges* instead of failing fast.  The classic fix is
a circuit breaker:

* ``CLOSED`` — normal operation; consecutive infrastructure failures
  (worker crashes, job timeouts) are counted, successes reset the
  count;
* ``OPEN`` — the consecutive-failure threshold was hit; compute is
  shed immediately (callers get a typed retry-after error) until
  ``reset_timeout`` has elapsed;
* ``HALF_OPEN`` — after the timeout a limited number of probe batches
  are let through; one success closes the breaker, one failure reopens
  it and restarts the clock.

The scheduler maps breaker state onto a coarse service state —
``HEALTHY`` (closed), ``DEGRADED`` (open/half-open: cache hits and
coalesced results are still served, new compute is shed), ``FAILED``
(service closed) — exported as a telemetry gauge and the ``/healthz``
endpoint.

This module is intentionally dependency-free (stdlib only): the typed
errors that carry breaker verdicts to callers live in
:mod:`repro.service.errors`, keeping ``resilience`` a leaf package.
"""

from __future__ import annotations

import threading
import time
from enum import Enum

__all__ = ["BreakerState", "CircuitBreaker", "ServiceState"]


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class ServiceState(Enum):
    """Coarse service health, gauge-encoded as its ``value``."""

    HEALTHY = 0
    DEGRADED = 1
    FAILED = 2


class CircuitBreaker:
    """Consecutive-failure circuit breaker (thread-safe).

    Parameters
    ----------
    failure_threshold:
        Consecutive infrastructure failures that trip the breaker.
    reset_timeout:
        Seconds to hold OPEN before allowing half-open probes.
    half_open_probes:
        Concurrent probes allowed while HALF_OPEN.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(self, failure_threshold: int = 3, reset_timeout: float = 5.0,
                 half_open_probes: int = 1, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._trips = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> BreakerState:
        if (self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            self._state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a unit of compute proceed right now?

        CLOSED → always; OPEN → no; HALF_OPEN → yes while probe slots
        remain (the caller MUST report the outcome via
        :meth:`record_success` / :meth:`record_failure`, which releases
        the slot).
        """
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.CLOSED:
                return True
            if state is BreakerState.OPEN:
                return False
            if self._probes_in_flight < self.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state is BreakerState.HALF_OPEN:
                # A failed probe reopens immediately and restarts the clock.
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self._trips += 1
                return
            self._consecutive_failures += 1
            if (state is BreakerState.CLOSED
                    and self._consecutive_failures >= self.failure_threshold):
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self._trips += 1

    def retry_after(self) -> float:
        """Seconds until probes will next be allowed (0 when not OPEN)."""
        with self._lock:
            if self._state_locked() is not BreakerState.OPEN:
                return 0.0
            return max(
                0.0, self.reset_timeout - (self._clock() - self._opened_at)
            )

    def reset(self) -> None:
        """Force-close (administrative override / tests)."""
        with self._lock:
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probes_in_flight = 0
