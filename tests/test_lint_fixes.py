"""Regression tests for the violations the invariant linter surfaced.

The first `repro lint src` run (see docs/static-analysis.md) flagged
real pre-existing problems; each fix here gets a behavioural test so
the bug class stays dead even if the rule is ever relaxed:

* RPR004 — ``dqmc.trotter.extrapolate`` solved its normal equations
  with raw ``np.linalg.solve``/``inv``: a singular design matrix
  (duplicate ``dtau`` points) surfaced as a raw ``LinAlgError`` (or
  silently garbage covariance).  Now routed through the guarded
  solvers, which raise the typed ``NumericalHealthError``.
* RPR008 — silent ``except Exception`` swallows: the bench load
  generator swallowed *any* exception from ``ticket.result`` (harness
  bugs counted as "failed jobs"); the scheduler's delta fast path
  dropped the exception on the floor before falling back; the process
  transport's teardown helpers caught everything including
  ``KeyboardInterrupt``-adjacent programming errors.
* Satellite: ``ServiceMetrics`` splits the wall-clock birth timestamp
  (reporting) from the monotonic uptime clock (measurement).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.bench.workloads import run_job_stream
from repro.dqmc.trotter import extrapolate
from repro.resilience.guards import (
    NumericalHealthError,
    guarded_inv,
    guarded_solve,
)
from repro.service.errors import JobSheddedError
from repro.service.metrics import ServiceMetrics
from repro.telemetry import TraceCollector


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# guarded dense solvers (RPR004)
# ----------------------------------------------------------------------

class TestGuardedSolvers:
    def test_matches_raw_numpy_on_healthy_input(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
        b = rng.normal(size=6)
        np.testing.assert_allclose(guarded_solve(A, b), np.linalg.solve(A, b))
        np.testing.assert_allclose(guarded_inv(A), np.linalg.inv(A))

    def test_singular_system_raises_typed_error(self):
        A = np.ones((3, 3))
        with pytest.raises(NumericalHealthError) as err:
            guarded_solve(A, np.ones(3), site="unit")
        assert err.value.check == "condition"
        assert err.value.site == "unit"
        with pytest.raises(NumericalHealthError):
            guarded_inv(A, site="unit")

    def test_nonfinite_input_trips_finite_screen(self):
        A = np.eye(3)
        A[1, 1] = np.nan
        with pytest.raises(NumericalHealthError) as err:
            guarded_inv(A, site="unit")
        assert err.value.check == "finite"

    def test_condition_limit_enforced(self):
        A = np.diag([1.0, 1e-9])
        with pytest.raises(NumericalHealthError) as err:
            guarded_solve(A, np.ones(2), condition_limit=1e6)
        assert err.value.value > err.value.limit

    def test_guard_telemetry_counted(self):
        telemetry.configure()
        guarded_solve(np.eye(2), np.ones(2))
        reg = telemetry.registry()
        counts = {
            values[0]: child.value
            for values, child in reg.counter(
                "repro_guard_checks_total", "", labels=("check",)
            ).samples()
        }
        assert counts.get("dense", 0) >= 1


class TestTrotterGuarded:
    def test_duplicate_dtaus_raise_typed_error(self):
        """The normal equations go singular; pre-fix this was a raw
        LinAlgError (or worse, finite garbage)."""
        dtaus = np.array([0.1, 0.1, 0.1])
        values = np.array([1.0, 1.0, 1.0])
        with pytest.raises(NumericalHealthError):
            extrapolate(dtaus, values, order=2)

    def test_healthy_fit_unchanged(self):
        dtaus = np.array([0.05, 0.1, 0.2])
        truth = 2.0 + 3.0 * dtaus**2
        res = extrapolate(dtaus, truth, order=1)
        assert res.value == pytest.approx(2.0, abs=1e-10)


# ----------------------------------------------------------------------
# bench load generator (RPR008: bench/workloads.py)
# ----------------------------------------------------------------------

class _StubTicket:
    def __init__(self, error: BaseException | None = None):
        self._error = error
        self.fingerprint = "f" * 64

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return object()


class _StubService:
    """Just enough service surface for run_job_stream."""

    def __init__(self, tickets):
        self._tickets = list(tickets)

    def submit(self, job):
        return self._tickets.pop(0)

    def stats(self):
        return {
            "latency_seconds": {"p50": 0.0, "p95": 0.0, "p99": 0.0},
            "cache": {"hit_rate": 0.0},
            "executions": 0,
            "coalesced": 0,
        }


class _StubJob:
    fingerprint = "a" * 64


class TestJobStreamFailureHandling:
    def test_service_errors_counted_not_raised(self):
        svc = _StubService([
            _StubTicket(),
            _StubTicket(JobSheddedError("overload")),
            _StubTicket(TimeoutError("slow")),
        ])
        report = run_job_stream(svc, [_StubJob()] * 3, time_scale=0.0)
        assert report.completed == 1
        assert report.failed == 2

    def test_unexpected_exception_propagates(self):
        """Pre-fix: a KeyError from a harness bug was silently counted
        as a failed job, corrupting the benchmark numbers."""
        svc = _StubService([_StubTicket(KeyError("harness bug"))])
        with pytest.raises(KeyError):
            run_job_stream(svc, [_StubJob()], time_scale=0.0)


# ----------------------------------------------------------------------
# transport teardown handlers (RPR008: transport/mpshm.py)
# ----------------------------------------------------------------------

class _ExplodingPipe:
    """Pipe end whose sends and close fail with a configurable exception."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def send(self, frame):
        raise self.exc

    def close(self):
        raise self.exc


def _exploding_channels(exc: BaseException):
    """ChannelSet whose one peer pipe fails with ``exc``."""
    from repro.transport.mpshm import ChannelSet

    return ChannelSet(rank=0, peers={1: _ExplodingPipe(exc)})


class TestTransportTeardown:
    def test_peer_gone_is_swallowed(self):
        ch = _exploding_channels(BrokenPipeError("peer died"))
        ch.say_bye()
        ch.broadcast_abort("going down")
        ch.close()

    def test_unexpected_error_propagates(self):
        """Pre-fix: `except Exception: pass` hid programming errors in
        the frame encoder behind 'peer may already be gone'."""
        ch = _exploding_channels(KeyError("bug in frame encoding"))
        with pytest.raises(KeyError):
            ch.say_bye()
        with pytest.raises(KeyError):
            ch.broadcast_abort("going down")
        with pytest.raises(KeyError):
            ch.close()

    def test_tracker_unregister_tolerates_api_failures(self, monkeypatch):
        from multiprocessing import resource_tracker

        from repro.transport.mpshm import untrack_segment

        def refuse(name, rtype):
            raise ValueError(f"unknown segment {name}")

        monkeypatch.setattr(resource_tracker, "unregister", refuse)
        untrack_segment("repro-test-nonexistent-segment")


# ----------------------------------------------------------------------
# scheduler delta fast path records its failure (RPR008: scheduler.py)
# ----------------------------------------------------------------------

class TestDeltaErrorRecorded:
    def test_delta_failure_lands_on_span_and_counter(self, monkeypatch):
        from repro.core.patterns import Pattern
        from repro.hubbard.hs_field import HSField
        from repro.service import (
            GreensJob,
            GreensService,
            ModelSpec,
            ServiceConfig,
        )
        from repro.service.scheduler import GreensService as _GS

        collector = TraceCollector()
        telemetry.configure(collector=collector)

        spec = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)
        field = HSField.random(spec.L, spec.N, np.random.default_rng(7))
        base = GreensJob.from_field(
            spec, field, c=4, pattern=Pattern.FULL_DIAGONAL, q=0
        )
        flip = field.copy()
        flip.flip(3, 1)
        delta = GreensJob.from_field(
            spec, flip, c=4, pattern=Pattern.FULL_DIAGONAL, q=0
        ).with_base(base.fingerprint)

        monkeypatch.setattr(
            _GS,
            "_delta_state",
            lambda self, b, j: (_ for _ in ()).throw(
                RuntimeError("woodbury exploded")
            ),
        )
        with GreensService(ServiceConfig(workers=1)) as svc:
            svc.compute(base, timeout=60)
            result = svc.compute(delta, timeout=60)
            reasons = svc.stats()["delta"]["fallbacks"]
        # Served correctly by the full solve...
        assert not result.rung.startswith("delta")
        # ...with the failure counted and the exception on the span.
        assert reasons.get("error") == 1
        recorded = [
            s for s in collector.snapshot()
            if "woodbury exploded" in str(s.get("attributes", {}).get(
                "delta_error", ""
            ))
        ]
        assert recorded, "delta failure must be recorded on the request span"


# ----------------------------------------------------------------------
# ServiceMetrics clock split (satellite: service/metrics.py)
# ----------------------------------------------------------------------

class TestMetricsClockSplit:
    def test_epoch_start_reported_and_uptime_monotonic(self):
        import time as _time

        before = _time.time()
        m = ServiceMetrics()
        after = _time.time()
        stats = m.stats()
        assert before <= stats["started_at_epoch"] <= after
        assert stats["uptime_seconds"] >= 0.0
        # Uptime is computed on the monotonic clock: shoving the epoch
        # start into the future must not drag uptime negative.
        m.started_at_epoch = _time.time() + 3600
        assert m.stats()["uptime_seconds"] >= 0.0
