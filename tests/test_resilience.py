"""The resilience layer: guards, fallback ladder, chaos plans, health.

Covers the robustness acceptance scenarios:

* numerical guards catch NaN/Inf, condition blow-up, and wrong
  inverses, as typed :class:`NumericalHealthError`\\ s;
* the fallback ladder rescues an ill-conditioned low-temperature case
  the direct solve gets wrong (checked against both the explicit
  formula and the UDT-stabilised oracle);
* :class:`FaultPlan` decisions are deterministic and JSON-stable;
* the circuit breaker trips, probes, and recovers; the service sheds
  new compute with :class:`ServiceDegradedError` while OPEN and still
  serves cache hits;
* admission validation rejects unusable jobs with
  :class:`InvalidJobError` before they become cache keys;
* ``/healthz`` rides next to ``/metrics``.
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.core.cls import cls
from repro.core.fsi import fallback_rungs, fsi, fsi_resilient
from repro.core.greens_explicit import equal_time_greens
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic
from repro.dqmc.stabilize import stable_equal_time
from repro.hubbard.hs_field import HSField
from repro.hubbard.lattice import RectangularLattice
from repro.hubbard.matrix import HubbardModel
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    FaultRule,
    GuardConfig,
    NumericalHealthError,
    ServiceState,
    estimate_condition,
    screen_finite,
)
from repro.resilience import chaos
from repro.resilience.guards import (
    check_cluster_conditions,
    check_seed_residual,
    sample_indices,
)
from repro.service import (
    GreensJob,
    GreensService,
    InvalidJobError,
    ModelSpec,
    ServiceConfig,
    ServiceDegradedError,
)
from repro.telemetry.exporters import MetricsServer
from repro.telemetry.metrics import MetricRegistry


def toy_pcyclic(L: int = 12, N: int = 6, seed: int = 3) -> BlockPCyclic:
    rng = np.random.default_rng(seed)
    return BlockPCyclic(np.eye(N)[None] + 0.3 * rng.standard_normal((L, N, N)))


def cold_hubbard() -> BlockPCyclic:
    """beta=8, U=4: cluster products at c=16 span >1e13 in condition."""
    model = HubbardModel(RectangularLattice(2, 2), L=32, U=4.0, beta=8.0)
    field = HSField.random(32, 4, np.random.default_rng(3))
    return model.build_matrix(field, +1)


# ----------------------------------------------------------------------
# guards
# ----------------------------------------------------------------------

class TestGuards:
    def test_screen_finite_passes_clean_arrays(self):
        screen_finite("input", np.ones((3, 3)), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_screen_finite_trips(self, bad):
        arr = np.ones((4, 4))
        arr[1, 2] = bad
        with pytest.raises(NumericalHealthError, match="non-finite") as ei:
            screen_finite("cls", np.ones(3), arr)
        assert ei.value.check == "finite"
        assert ei.value.site == "cls"

    def test_estimate_condition_matches_exact_1norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 8, 20):
            A = rng.standard_normal((n, n)) + 3 * np.eye(n)
            est = estimate_condition(A)
            exact = np.linalg.cond(A, 1)
            # Hager/Higham estimates are exact for these sizes in
            # practice; allow slack for the estimator's lower-bound bias.
            assert exact * 0.3 <= est <= exact * 1.01

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_estimate_condition_large_blocks_under_a_team(self, dtype):
        """Above the exact-inverse size the estimate solves with LU
        factors; 4 threads estimating at once (as spectral sweep teams
        do) must agree with the serial value."""
        from repro.parallel.openmp import parallel_for

        rng = np.random.default_rng(7)
        A = rng.standard_normal((160, 160)) + 12 * np.eye(160)
        if dtype is np.complex128:
            A = A + 1j * rng.standard_normal((160, 160))
        serial = estimate_condition(A)
        assert serial == pytest.approx(np.linalg.cond(A, 1), rel=0.5)
        got = [0.0] * 16

        def body(i: int) -> None:
            got[i] = estimate_condition(A)

        parallel_for(body, len(got), num_threads=4)
        np.testing.assert_allclose(got, serial, rtol=1e-12)

    def test_estimate_condition_singular_is_inf(self):
        A = np.ones((4, 4))  # rank 1
        assert estimate_condition(A) == np.inf
        assert estimate_condition(np.zeros((3, 3))) == np.inf
        bad = np.eye(3)
        bad[0, 0] = np.nan
        assert estimate_condition(bad) == np.inf

    def test_sample_indices_deterministic_spread(self):
        assert sample_indices(10, 0) == []
        assert sample_indices(0, 3) == []
        assert sample_indices(5, 10) == [0, 1, 2, 3, 4]
        picked = sample_indices(100, 3)
        assert picked == [0, 49, 99]

    def test_cluster_condition_guard_trips_on_tight_limit(self):
        pc = toy_pcyclic()
        reduced = cls(pc, 4, 0)
        config = GuardConfig(condition_limit=1.5, condition_samples=8)
        with pytest.raises(NumericalHealthError, match="condition") as ei:
            check_cluster_conditions(reduced.B, config)
        assert ei.value.check == "condition"
        assert ei.value.value > ei.value.limit
        # A generous limit passes and returns the worst estimate.
        worst = check_cluster_conditions(
            reduced.B, GuardConfig(condition_samples=8)
        )
        assert 1.0 < worst < 1e12

    def test_seed_residual_accepts_correct_inverse(self):
        from repro.core.bsofi import bsofi

        pc = toy_pcyclic()
        reduced = cls(pc, 4, 1)
        seeds = bsofi(reduced)
        config = GuardConfig(residual_samples=3)
        worst = check_seed_residual(reduced.B, seeds, config)
        assert worst < 1e-12

    def test_seed_residual_rejects_wrong_inverse(self):
        from repro.core.bsofi import bsofi

        pc = toy_pcyclic()
        reduced = cls(pc, 4, 1)
        seeds = bsofi(reduced) * 1.01  # 1% wrong everywhere
        with pytest.raises(NumericalHealthError, match="residual"):
            check_seed_residual(
                reduced.B, seeds, GuardConfig(residual_samples=3)
            )

    def test_guard_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(condition_limit=0.0)
        with pytest.raises(ValueError):
            GuardConfig(residual_limit=-1.0)
        with pytest.raises(ValueError):
            GuardConfig(condition_samples=-1)

    def test_guarded_fsi_matches_unguarded(self):
        pc = toy_pcyclic()
        plain = fsi(pc, 4, Pattern.COLUMNS, q=1)
        guarded = fsi(pc, 4, Pattern.COLUMNS, q=1, guards=GuardConfig())
        assert guarded.health is not None
        assert guarded.health.checks_run > 0
        assert guarded.health.tripped is None
        for kl in plain.selected:
            np.testing.assert_array_equal(
                guarded.selected[kl], plain.selected[kl]
            )

    def test_guarded_fsi_trips_on_nan_input(self):
        pc = toy_pcyclic()
        B = pc.B.copy()
        B[2, 0, 0] = np.nan
        with pytest.raises(NumericalHealthError, match="input"):
            fsi(BlockPCyclic(B), 4, Pattern.DIAGONAL, q=0,
                guards=GuardConfig())


# ----------------------------------------------------------------------
# fallback ladder
# ----------------------------------------------------------------------

class TestFallbackLadder:
    def test_fallback_rungs_are_divisor_chains(self):
        assert fallback_rungs(8) == [8, 4, 2, 1]
        assert fallback_rungs(6) == [6, 3, 1]
        assert fallback_rungs(5) == [5, 1]
        assert fallback_rungs(1) == [1]
        with pytest.raises(ValueError):
            fallback_rungs(0)

    def test_healthy_solve_serves_direct(self):
        pc = toy_pcyclic()
        res = fsi_resilient(pc, 4, Pattern.COLUMNS, q=1)
        assert res.rung == "direct"
        plain = fsi(pc, 4, Pattern.COLUMNS, q=1)
        for kl in plain.selected:
            np.testing.assert_array_equal(res.selected[kl], plain.selected[kl])

    def test_fallback_serves_requested_selection(self):
        """Force the direct rung to trip; c=2 must serve the *same*
        block set the caller asked for, filtered from the finer run."""
        pc = toy_pcyclic()
        reduced = cls(pc, 4, 3)
        direct_cond = max(
            estimate_condition(reduced.B[i]) for i in range(reduced.B.shape[0])
        )
        half = cls(pc, 2, 1)
        half_cond = max(
            estimate_condition(half.B[i]) for i in range(half.B.shape[0])
        )
        assert half_cond < direct_cond
        limit = float(np.sqrt(half_cond * direct_cond))
        guards = GuardConfig(condition_limit=limit, condition_samples=64)
        res = fsi_resilient(pc, 4, Pattern.COLUMNS, q=3, guards=guards)
        assert res.rung == "c=2"
        oracle = fsi(pc, 4, Pattern.COLUMNS, q=3)
        assert sorted(res.selected) == sorted(oracle.selected)
        for kl in oracle.selected:
            np.testing.assert_allclose(
                res.selected[kl], oracle.selected[kl], atol=1e-8
            )

    def test_fallback_seeds_match_served_selection(self):
        """Regression: fallback rungs used to ship the *finer* rung's
        seed grid (``b' = L/cur`` blocks) under a selection reporting
        the requested ``c`` — indexing seeds by the served selection
        then hit the wrong entries.  Seeds must now be the exact
        requested-``c`` grid."""
        pc = toy_pcyclic()
        reduced = cls(pc, 4, 3)
        direct_cond = max(
            estimate_condition(reduced.B[i]) for i in range(reduced.B.shape[0])
        )
        half = cls(pc, 2, 1)
        half_cond = max(
            estimate_condition(half.B[i]) for i in range(half.B.shape[0])
        )
        limit = float(np.sqrt(half_cond * direct_cond))
        guards = GuardConfig(condition_limit=limit, condition_samples=64)
        res = fsi_resilient(pc, 4, Pattern.COLUMNS, q=3, guards=guards)
        assert res.rung == "c=2"
        oracle = fsi(pc, 4, Pattern.COLUMNS, q=3)
        b = pc.L // 4
        assert res.seeds.shape == (b, b, pc.N, pc.N)
        assert res.selection.seeds == oracle.selection.seeds
        np.testing.assert_allclose(res.seeds, oracle.seeds, atol=1e-8)

    def test_udt_rung_is_last_resort(self):
        pc = toy_pcyclic()
        guards = GuardConfig(condition_limit=1.0 + 1e-12)  # trips every c
        res = fsi_resilient(pc, 4, Pattern.FULL_DIAGONAL, q=0, guards=guards)
        assert res.rung == "udt"
        assert res.seeds.shape[0] == 0  # the UDT rung has no seeds
        for k in range(1, pc.L + 1):
            np.testing.assert_allclose(
                res.selected[k, k], stable_equal_time(pc, k), atol=1e-10
            )

    def test_non_diagonal_pattern_reraises_when_ladder_exhausts(self):
        pc = toy_pcyclic()
        guards = GuardConfig(condition_limit=1.0 + 1e-12)
        with pytest.raises(NumericalHealthError):
            fsi_resilient(pc, 4, Pattern.COLUMNS, q=0, guards=guards)

    def test_rescues_cold_hubbard_acceptance(self):
        """The headline acceptance case: at beta=8, U=4, c=16 the CLS
        clustered products reach condition ~3e13 and the *default*
        condition guard trips; the c=8 rung serves a result that
        matches both the explicit formula (to its own accuracy floor)
        and the UDT-stabilised oracle — 4 orders of magnitude closer
        than what the unguarded direct solve returns.
        """
        pc = cold_hubbard()
        res = fsi_resilient(pc, 16, Pattern.FULL_DIAGONAL, q=0)
        assert res.rung == "c=8"
        direct = fsi(pc, 16, Pattern.FULL_DIAGONAL, q=0)
        worst_resilient = 0.0
        worst_direct = 0.0
        for k in range(1, pc.L + 1):
            oracle = stable_equal_time(pc, k)
            worst_resilient = max(
                worst_resilient, np.abs(res.selected[k, k] - oracle).max()
            )
            worst_direct = max(
                worst_direct, np.abs(direct.selected[k, k] - oracle).max()
            )
            np.testing.assert_allclose(
                res.selected[k, k], equal_time_greens(pc, k), atol=1e-3
            )
        assert worst_resilient < 1e-9
        assert worst_direct > 1e-8  # the rescue was real


# ----------------------------------------------------------------------
# chaos plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.CRASH,
                          probability=0.5),
            ),
        )
        keys = [f"job-{i}" for i in range(64)]
        first = [plan.decide("worker.task", k) is not None for k in keys]
        second = [plan.decide("worker.task", k) is not None for k in keys]
        assert first == second
        assert any(first) and not all(first)  # p=0.5 actually splits

    def test_different_seeds_differ(self):
        keys = [f"job-{i}" for i in range(64)]

        def fires(seed: int) -> list[bool]:
            plan = FaultPlan(
                seed=seed,
                rules=(
                    FaultRule(site="s", kind=FaultKind.HANG, probability=0.5),
                ),
            )
            return [plan.decide("s", k) is not None for k in keys]

        assert fires(1) != fires(2)

    def test_json_round_trip_preserves_decisions(self):
        plan = FaultPlan(
            seed=11,
            rules=(
                FaultRule(site="cls.output", kind=FaultKind.CORRUPT,
                          probability=0.3),
                FaultRule(site="worker.task", kind=FaultKind.HANG,
                          probability=0.2, hang_seconds=1.5),
            ),
        )
        clone = FaultPlan.from_json(plan.to_json())
        # NaN corrupt_value defeats dataclass ==; JSON form is canonical.
        assert clone.to_json() == plan.to_json()
        assert (clone.seed, clone.state_dir) == (plan.seed, plan.state_dir)
        for i in range(32):
            key = f"k{i}"
            for site in ("cls.output", "worker.task"):
                mine = plan.decide(site, key)
                theirs = clone.decide(site, key)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert (mine.site, mine.kind) == (theirs.site, theirs.kind)
        # NaN corrupt_value survives the JSON detour as a string.
        parsed = json.loads(plan.to_json())
        assert parsed["rules"][0]["corrupt_value"] == "nan"
        assert np.isnan(clone.rules[0].corrupt_value)

    def test_once_rule_fires_exactly_once(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.CRASH,
                          once=True),
            ),
            state_dir=str(tmp_path / "chaos"),
        )
        assert plan.decide("worker.task", "job-a") is not None
        assert plan.decide("worker.task", "job-a") is None  # claimed
        assert plan.fired() == 1
        # A different key gets its own single firing.
        assert plan.decide("worker.task", "job-b") is not None
        assert plan.fired() == 2

    def test_once_requires_state_dir(self):
        with pytest.raises(ValueError, match="state_dir"):
            FaultPlan(
                seed=0,
                rules=(FaultRule(site="s", kind=FaultKind.CRASH, once=True),),
            )

    def test_corrupt_array_only_under_active_plan(self):
        arr = np.ones((3, 4, 4))
        assert chaos.corrupt_array("cls.output", arr) is None
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(site="cls.output", kind=FaultKind.CORRUPT),),
        )
        with chaos.activate(plan), chaos.job_key("k"):
            assert chaos.is_active()
            out = chaos.corrupt_array("cls.output", arr)
        assert out is not None
        assert not np.isfinite(out).all()
        assert np.isfinite(arr).all()  # original untouched
        assert not chaos.is_active()

    def test_illcond_corruption_blows_up_condition(self):
        rng = np.random.default_rng(0)
        arr = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(site="cls.output", kind=FaultKind.ILLCOND),),
        )
        with chaos.activate(plan), chaos.job_key("k"):
            out = chaos.corrupt_array("cls.output", arr)
        assert out is not None
        assert estimate_condition(out) > 1e10


# ----------------------------------------------------------------------
# circuit breaker + service states
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_and_recovers(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                            clock=lambda: t[0])
        assert br.state is BreakerState.CLOSED
        br.record_failure()
        br.record_failure()
        assert br.state is BreakerState.CLOSED  # below threshold
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert br.trips == 1
        assert not br.allow()
        assert br.retry_after() == pytest.approx(10.0)
        t[0] = 10.1
        assert br.state is BreakerState.HALF_OPEN
        assert br.allow()          # the probe slot
        assert not br.allow()      # rationed to half_open_probes=1
        br.record_success()
        assert br.state is BreakerState.CLOSED
        assert br.allow()

    def test_failed_probe_reopens_and_restarts_clock(self):
        t = [0.0]
        br = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                            clock=lambda: t[0])
        br.record_failure()
        assert br.state is BreakerState.OPEN
        t[0] = 5.0
        assert br.allow()
        br.record_failure()
        assert br.state is BreakerState.OPEN
        assert br.retry_after() == pytest.approx(5.0)
        assert br.trips == 2

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state is BreakerState.CLOSED

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def make_job(seed: int, c: int = 4, spec: ModelSpec = SPEC) -> GreensJob:
    field = HSField.random(spec.L, spec.N, np.random.default_rng(seed))
    return GreensJob.from_field(spec, field, c=c, pattern=Pattern.DIAGONAL,
                                q=0)


class TestServiceHealth:
    def test_admission_rejects_nonfinite_params(self):
        spec = ModelSpec(nx=2, ny=2, L=8, U=float("nan"))
        job = make_job(seed=0, spec=spec)
        with GreensService(ServiceConfig(workers=1, fleet_ranks=1)) as svc:
            with pytest.raises(InvalidJobError, match="U"):
                svc.submit(job)
            # Rejected before any accounting or fingerprint registration.
            assert svc.metrics.submitted.value == 0
            assert len(svc._inflight) == 0

    def test_admission_rejects_corrupt_field_buffer(self):
        good = make_job(seed=1)
        bad = GreensJob(
            spec=good.spec,
            h=bytes(len(good.h)),  # all zeros: not a +-1 spin field
            c=good.c, pattern=good.pattern, q=good.q,
        )
        with GreensService(ServiceConfig(workers=1, fleet_ranks=1)) as svc:
            with pytest.raises(InvalidJobError, match="HS field"):
                svc.submit(bad)
            svc.submit(good).result(timeout=60.0)  # sanity: good job runs

    def test_degraded_sheds_new_compute_serves_cache(self):
        with GreensService(ServiceConfig(workers=1, fleet_ranks=1)) as svc:
            job = make_job(seed=2)
            result = svc.submit(job).result(timeout=60.0)
            assert svc.state is ServiceState.HEALTHY
            # Trip the breaker by hand (unit-level: the chaos suite
            # trips it end-to-end through real crashes).
            for _ in range(svc.config.breaker_threshold):
                svc.breaker.record_failure()
            assert svc.state is ServiceState.DEGRADED
            with pytest.raises(ServiceDegradedError) as ei:
                svc.submit(make_job(seed=3))
            assert ei.value.retry_after > 0
            # Cache hits still flow while degraded.
            again = svc.submit(job)
            assert again.cache_hit
            assert again.result(timeout=5.0).fingerprint == result.fingerprint
            svc.breaker.reset()
            assert svc.state is ServiceState.HEALTHY
        assert svc.state is ServiceState.FAILED

    def test_health_payload_shape(self):
        with GreensService(ServiceConfig(workers=1, fleet_ranks=1)) as svc:
            payload = svc.health()
            assert payload["state"] == "healthy"
            assert payload["breaker"] == "closed"
            assert payload["retry_after"] == 0.0
            assert {"queue_depth", "inflight", "breaker_trips",
                    "consecutive_failures"} <= set(payload)

    def test_healthz_endpoint(self):
        registry = MetricRegistry()
        states = iter([
            {"state": "healthy", "breaker": "closed"},
            {"state": "degraded", "breaker": "open"},
            {"state": "failed", "breaker": "open"},
        ])
        server = MetricsServer(
            (registry,), port=0, health=lambda: next(states)
        )
        port = server.start()
        try:
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{base}/healthz") as rsp:
                assert rsp.status == 200
                assert json.loads(rsp.read())["state"] == "healthy"
            with urllib.request.urlopen(f"{base}/healthz") as rsp:
                assert rsp.status == 200  # degraded still routes scrapes
                assert json.loads(rsp.read())["state"] == "degraded"
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(f"{base}/healthz")
            assert ei.value.code == 503
            with urllib.request.urlopen(f"{base}/metrics") as rsp:
                assert rsp.status == 200  # /metrics unaffected
        finally:
            server.stop()

    def test_healthz_404_without_callback(self):
        server = MetricsServer((MetricRegistry(),), port=0)
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz")
            assert ei.value.code == 404
        finally:
            server.stop()
