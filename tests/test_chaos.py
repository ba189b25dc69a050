"""Chaos drills: the full service under a deterministic fault plan.

The acceptance contract for the resilience layer, exercised end to end:
every submitted job either returns a result matching the direct-FSI
oracle or fails with a *typed* :class:`ServiceError`; the scheduler
never wedges (every ticket resolves within a bounded timeout); and the
circuit breaker recovers to HEALTHY once the fault stream stops.

Everything here is seeded: :class:`FaultPlan` decisions are pure
functions of ``(seed, site, fingerprint)``, so each drill replays the
exact same crashes, hangs, and corruptions on every machine — run via
the ``chaos`` marker in CI (``pytest -m chaos``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.hubbard.hs_field import HSField
from repro.resilience import (
    BreakerState,
    FaultKind,
    FaultPlan,
    FaultRule,
    GuardConfig,
    NumericalHealthError,
    ServiceState,
)
from repro.service import (
    GreensJob,
    GreensService,
    JobFailedError,
    JobTimeoutError,
    ModelSpec,
    ServiceConfig,
    ServiceDegradedError,
    ServiceError,
)

pytestmark = pytest.mark.chaos

SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def make_job(seed: int) -> GreensJob:
    field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(seed))
    return GreensJob.from_field(SPEC, field, c=4, pattern=Pattern.DIAGONAL,
                                q=0)


def oracle_blocks(job: GreensJob) -> dict:
    model = job.spec.build_model()
    pc = model.build_matrix(job.field(), job.spec.sigma)
    res = fsi(pc, job.c, pattern=job.pattern, q=job.q, num_threads=1)
    return dict(res.selected.items())


#: The drill's rules; seed 18 partitions the 16 drill jobs cleanly
#: under v3 fingerprints (verified below by replaying the plan's own
#: rolls): 3 crash-once, 1 hang, 1 CLS corruption, 1 cache-store
#: corruption, 10 untouched.
DRILL_SEED = 18
DRILL_RULES = (
    FaultRule(site="worker.task", kind=FaultKind.CRASH, probability=0.25,
              once=True),
    FaultRule(site="worker.task", kind=FaultKind.HANG, probability=0.10,
              hang_seconds=30.0),
    FaultRule(site="cls.output", kind=FaultKind.CORRUPT, probability=0.20),
    FaultRule(site="cache.store", kind=FaultKind.CORRUPT, probability=0.12,
              once=True),
)


def expected_faults(plan: FaultPlan, jobs: list[GreensJob]):
    """Replay the plan's deterministic rolls without claiming markers."""
    crash, hang, cls_corrupt, cache_corrupt = set(), set(), set(), set()
    for i, job in enumerate(jobs):
        fp = job.fingerprint
        if plan._roll("worker.task", fp, 0) < DRILL_RULES[0].probability:
            crash.add(i)
        if plan._roll("worker.task", fp, 1) < DRILL_RULES[1].probability:
            hang.add(i)
        if plan._roll("cls.output", fp, 2) < DRILL_RULES[2].probability:
            cls_corrupt.add(i)
        if plan._roll("cache.store", fp, 3) < DRILL_RULES[3].probability:
            cache_corrupt.add(i)
    return crash, hang, cls_corrupt, cache_corrupt


class TestChaosDrill:
    def test_every_job_golden_or_typed_error(self, tmp_path):
        """16 jobs through crashes, hangs, and corruption at three sites."""
        plan = FaultPlan(seed=DRILL_SEED, rules=DRILL_RULES,
                         state_dir=str(tmp_path / "chaos"))
        jobs = [make_job(seed) for seed in range(16)]
        crash, hang, cls_corrupt, cache_corrupt = expected_faults(plan, jobs)
        # The drill must actually exercise every fault site.
        assert crash and hang and cls_corrupt and cache_corrupt
        assert not hang & (crash | cls_corrupt | cache_corrupt)
        assert not cache_corrupt & (crash | cls_corrupt)

        config = ServiceConfig(
            workers=1,
            job_timeout=3.0, max_retries=2, retry_backoff=0.02,
            guards=GuardConfig(), chaos_plan=plan,
        )
        with GreensService(config) as svc:
            tickets = [svc.submit(job) for job in jobs]
            outcomes = []
            for ticket in tickets:
                try:
                    outcomes.append(ticket.result(timeout=120.0))
                except ServiceError as exc:
                    outcomes.append(exc)

            for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
                if i in hang:
                    assert isinstance(outcome, JobTimeoutError), i
                elif i in cache_corrupt:
                    # The store-side screen caught the poison before it
                    # could be cached or served.
                    assert isinstance(outcome, JobFailedError), i
                    assert isinstance(outcome.__cause__,
                                      NumericalHealthError)
                else:
                    assert not isinstance(outcome, BaseException), (
                        f"job {i}: {outcome!r}"
                    )
                    # Crash-once jobs recovered by retry; CLS-corrupted
                    # jobs were rescued by the UDT rung (corruption
                    # refires at every ladder rung, same fingerprint).
                    expected_rung = "udt" if i in cls_corrupt else "direct"
                    assert outcome.rung == expected_rung, i
                    for kl, block in oracle_blocks(job).items():
                        np.testing.assert_allclose(
                            outcome.blocks[kl], block, atol=1e-8,
                        )

            # Each crash-once rule really fired (marker files persist),
            # plus the single cache.store poisoning.
            assert plan.fired() == len(crash) + len(cache_corrupt)
            # Nothing wedged: the queue fully drained.
            assert svc.queue_depth == 0
            assert len(svc._inflight) == 0
            # One hang -> one timeout: far below the breaker threshold.
            assert svc.state is ServiceState.HEALTHY

            # The cache-poisoned job was never cached; resubmitting it
            # (once-rule already claimed) now computes and serves clean.
            for i in sorted(cache_corrupt):
                retry_ticket = svc.submit(jobs[i])
                assert not retry_ticket.cache_hit  # poison was never cached
                retry = retry_ticket.result(timeout=120.0)
                for kl, block in oracle_blocks(jobs[i]).items():
                    np.testing.assert_allclose(retry.blocks[kl], block,
                                               atol=1e-8)

    def test_breaker_opens_sheds_and_recovers(self, tmp_path):
        """Timeout storm trips the breaker; clean traffic closes it."""
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.HANG,
                          probability=0.5, hang_seconds=30.0),
            ),
        )
        # The plan is pure: pick three hanging jobs and one clean one.
        hang_seeds: list[int] = []
        clean_seed = None
        for seed in range(100, 300):
            fp = make_job(seed).fingerprint
            if plan._roll("worker.task", fp, 0) < 0.5:
                if len(hang_seeds) < 3:
                    hang_seeds.append(seed)
            elif clean_seed is None:
                clean_seed = seed
            if len(hang_seeds) == 3 and clean_seed is not None:
                break
        assert len(hang_seeds) == 3 and clean_seed is not None

        config = ServiceConfig(
            workers=1,
            job_timeout=1.0, max_retries=0, retry_backoff=0.01,
            breaker_threshold=3, breaker_reset=0.4,
            guards=GuardConfig(), chaos_plan=plan,
        )
        with GreensService(config) as svc:
            tickets = [svc.submit(make_job(seed)) for seed in hang_seeds]
            for ticket in tickets:
                with pytest.raises(JobTimeoutError):
                    ticket.result(timeout=60.0)
            assert svc.breaker.state is BreakerState.OPEN
            assert svc.state is ServiceState.DEGRADED
            with pytest.raises(ServiceDegradedError) as ei:
                svc.submit(make_job(clean_seed))
            assert ei.value.retry_after > 0

            # After reset_timeout the clean job is admitted as the
            # half-open probe; its success closes the breaker.
            deadline = time.monotonic() + 60.0
            result = None
            while result is None and time.monotonic() < deadline:
                try:
                    result = svc.submit(make_job(clean_seed)).result(
                        timeout=60.0
                    )
                except ServiceDegradedError:
                    time.sleep(0.05)
            assert result is not None
            for kl, block in oracle_blocks(make_job(clean_seed)).items():
                np.testing.assert_allclose(result.blocks[kl], block,
                                           atol=1e-10)
            assert svc.breaker.state is BreakerState.CLOSED
            assert svc.state is ServiceState.HEALTHY
