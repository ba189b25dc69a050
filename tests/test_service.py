"""The Green's-function service: jobs, queue, cache, workers, scheduler.

Covers the acceptance scenarios of the service subsystem:

* fingerprint determinism, including across processes;
* request coalescing (N identical submissions, one computation);
* LRU cache eviction under a byte budget;
* worker-crash retry and per-batch timeout (chaos tasks);
* graceful shutdown drain and forced shutdown;
* one job per dispatch, each traced in its own request's trace;
* how each dispatch's results came back, and the cache's drops, as
  exported metric families;
* an end-to-end 100-job burst with >= 30% duplicates verified
  against the direct :func:`repro.core.fsi.fsi` oracle.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.hubbard.hs_field import HSField
from repro.service import (
    BackpressurePolicy,
    BoundedPriorityQueue,
    GreensJob,
    GreensService,
    Histogram,
    JobResult,
    JobSheddedError,
    JobTimeoutError,
    LRUResultCache,
    ModelSpec,
    QueueEntry,
    QueueFullError,
    ServiceClosedError,
    ServiceConfig,
    WorkerCrashError,
    WorkerPool,
    execute_batch,
    execute_job,
)
from repro.resilience import FaultKind, FaultPlan, FaultRule
from repro.service import handoff
from repro.service.workers import chaos_task
from repro.telemetry import prometheus_text
from repro.telemetry import runtime as _telemetry

#: Small enough that one FSI run takes ~a millisecond.
SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def make_job(seed: int, c: int = 4, pattern: Pattern = Pattern.DIAGONAL,
             q: int = 0, spec: ModelSpec = SPEC) -> GreensJob:
    field = HSField.random(spec.L, spec.N, np.random.default_rng(seed))
    return GreensJob.from_field(spec, field, c=c, pattern=pattern, q=q)


def oracle_blocks(job: GreensJob) -> dict:
    """Direct (unserved) FSI on the same job — the ground truth."""
    model = job.spec.build_model()
    pc = model.build_matrix(job.field(), job.spec.sigma)
    res = fsi(pc, job.c, pattern=job.pattern, q=job.q, num_threads=1)
    return dict(res.selected.items())


# ----------------------------------------------------------------------
# picklable chaos tasks (module level so the fork-based pool finds them)
# ----------------------------------------------------------------------

def _sleep_task(job, **kwargs):
    time.sleep(60.0)


def _always_crash_task(job, **kwargs):
    os.kill(os.getpid(), 9)


SLOW_TASK_SECONDS = 0.5


def _slow_task(job, **kwargs):
    time.sleep(SLOW_TASK_SECONDS)
    return execute_job(job, **kwargs)


def _gated_task(job, gate_path=None, **kwargs):
    """Block until ``gate_path`` exists, then compute normally."""
    while not os.path.exists(gate_path):
        time.sleep(0.005)
    return execute_job(job, **kwargs)


def _wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_rebuild(self):
        assert make_job(seed=1).fingerprint == make_job(seed=1).fingerprint

    def test_sensitive_to_every_input(self):
        base = make_job(seed=1)
        assert base.fingerprint != make_job(seed=2).fingerprint
        assert base.fingerprint != make_job(seed=1, c=2).fingerprint
        assert base.fingerprint != make_job(seed=1, q=1).fingerprint
        assert (
            base.fingerprint
            != make_job(seed=1, pattern=Pattern.COLUMNS).fingerprint
        )
        other_spec = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=3.0, beta=1.0)
        assert base.fingerprint != make_job(seed=1, spec=other_spec).fingerprint

    def test_build_model_is_memoised_per_spec(self):
        """Workers rebuild a job's model per job: equal specs share one
        model (its eigh(K) and exponentials), unequal specs do not."""
        twin = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)
        model = SPEC.build_model()
        assert twin.build_model() is model
        other = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=3.0, beta=1.0)
        assert other.build_model() is not model
        assert other.build_model().U == 3.0

    def test_stable_across_processes(self):
        """SHA-256 over the canonical encoding, never Python hash():
        a fresh interpreter (fresh PYTHONHASHSEED) must agree."""
        script = (
            "import numpy as np\n"
            "from repro.hubbard.hs_field import HSField\n"
            "from repro.service import GreensJob, ModelSpec\n"
            "spec = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)\n"
            "f = HSField.random(spec.L, spec.N, np.random.default_rng(7))\n"
            "print(GreensJob.from_field(spec, f, c=4, q=0).fingerprint)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            check=True,
        )
        assert out.stdout.strip() == make_job(seed=7).fingerprint

    def test_compat_key_ignores_field_and_q(self):
        a, b = make_job(seed=1, q=0), make_job(seed=2, q=3)
        assert a.compat_key == b.compat_key
        assert a.compat_key != make_job(seed=1, c=2).compat_key

    def test_field_roundtrip(self):
        job = make_job(seed=3)
        np.testing.assert_array_equal(
            job.field().h, HSField.random(SPEC.L, SPEC.N,
                                          np.random.default_rng(3)).h
        )

    def test_validation(self):
        field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(0))
        with pytest.raises(ValueError, match="divisor"):
            GreensJob.from_field(SPEC, field, c=3, q=0)
        with pytest.raises(ValueError, match="q="):
            GreensJob.from_field(SPEC, field, c=4, q=4)
        with pytest.raises(ValueError, match="entries"):
            GreensJob(spec=SPEC, h=b"\x01\x02", c=4, q=0)
        with pytest.raises(ValueError, match="sigma"):
            ModelSpec(nx=2, ny=2, L=8, sigma=0)


# ----------------------------------------------------------------------
class TestCache:
    @staticmethod
    def result_of_bytes(fp: str, n: int) -> JobResult:
        job = make_job(seed=0)
        return JobResult(
            fingerprint=fp,
            selection=job.selection,
            blocks={(1, 1): np.zeros(n // 8, dtype=np.float64)},
        )

    def test_hit_miss_accounting(self):
        cache = LRUResultCache(max_bytes=1 << 20)
        assert cache.get("a") is None
        cache.put(self.result_of_bytes("a", 128))
        assert cache.get("a") is not None
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_evicts_lru_under_byte_budget(self):
        cache = LRUResultCache(max_bytes=256)
        cache.put(self.result_of_bytes("a", 128))
        cache.put(self.result_of_bytes("b", 128))
        assert cache.get("a") is not None  # refresh a: b becomes LRU
        cache.put(self.result_of_bytes("c", 128))
        assert "b" not in cache and "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.bytes_used <= 256

    def test_oversized_result_not_stored(self):
        cache = LRUResultCache(max_bytes=64)
        assert not cache.put(self.result_of_bytes("big", 128))
        assert len(cache) == 0

    def test_zero_budget_disables(self):
        cache = LRUResultCache(max_bytes=0)
        assert not cache.put(self.result_of_bytes("a", 64))
        assert cache.get("a") is None

    def test_replacement_updates_bytes(self):
        cache = LRUResultCache(max_bytes=512)
        cache.put(self.result_of_bytes("a", 128))
        cache.put(self.result_of_bytes("a", 256))
        assert cache.stats().bytes_used == 256


# ----------------------------------------------------------------------
class TestQueue:
    @staticmethod
    def entry(queue, priority=0, job=None):
        return QueueEntry(
            priority=priority, seq=queue.next_seq(),
            job=job if job is not None else make_job(seed=priority),
        )

    def test_priority_then_fifo(self):
        q = BoundedPriorityQueue(8)
        first_low = self.entry(q, priority=0)
        high = self.entry(q, priority=5)
        second_low = self.entry(q, priority=0)
        for e in (first_low, high, second_low):
            q.put(e)
        popped = [q.get() for _ in range(3)]
        assert popped == [high, first_low, second_low]

    def test_reject_policy(self):
        q = BoundedPriorityQueue(1, BackpressurePolicy.REJECT)
        q.put(self.entry(q))
        with pytest.raises(QueueFullError):
            q.put(self.entry(q))

    def test_block_policy_timeout(self):
        q = BoundedPriorityQueue(1, BackpressurePolicy.BLOCK)
        q.put(self.entry(q))
        with pytest.raises(QueueFullError, match="after"):
            q.put(self.entry(q), timeout=0.05)

    def test_shed_lowest_returns_victim(self):
        q = BoundedPriorityQueue(2, BackpressurePolicy.SHED_LOWEST)
        low = self.entry(q, priority=0)
        mid = self.entry(q, priority=1)
        q.put(low)
        q.put(mid)
        victim = q.put(self.entry(q, priority=2))
        assert victim is low
        # A newcomer that does not beat the worst queued entry is refused.
        with pytest.raises(QueueFullError, match="does not beat"):
            q.put(self.entry(q, priority=0))

    def test_get_pops_one_entry(self):
        """Compatible entries stay queued: each ``get`` pops one."""
        q = BoundedPriorityQueue(8)
        a = self.entry(q, job=make_job(seed=1))
        b = self.entry(q, job=make_job(seed=2))
        q.put(a)
        q.put(b)
        assert a.job.compat_key == b.job.compat_key
        assert q.get() is a
        assert len(q) == 1
        assert q.get() is b

    def test_get_wakes_each_waiting_consumer(self):
        """Two entries reaching two waiting consumers go one to each."""
        import threading

        q = BoundedPriorityQueue(8)
        popped = []
        consumers = [
            threading.Thread(target=lambda: popped.append(q.get()))
            for _ in range(2)
        ]
        for t in consumers:
            t.start()
        entries = [self.entry(q, job=make_job(seed=s)) for s in (1, 2)]
        for e in entries:
            q.put(e)
        for t in consumers:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert sorted(e.seq for e in popped) == sorted(e.seq for e in entries)

    def test_closed_and_drained_returns_none(self):
        q = BoundedPriorityQueue(4)
        q.close()
        assert q.get() is None
        with pytest.raises(ServiceClosedError):
            q.put(QueueEntry(priority=0, seq=1, job=make_job(seed=0)))


# ----------------------------------------------------------------------
class TestHistogram:
    def test_percentiles_exact(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.mean == pytest.approx(50.5)

    def test_reservoir_keeps_recent(self):
        h = Histogram(capacity=4)
        for v in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            h.observe(v)
        assert h.percentile(50) == 9.0   # old 1.0s rotated out
        assert h.count == 8 and h.min == 1.0  # exact over all observations

    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0


# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_batch_matches_oracle(self):
        jobs = [make_job(seed=s, q=s % 4) for s in range(3)]
        pool = WorkerPool(workers=1)
        try:
            results = [pool.run(job) for job in jobs]
        finally:
            pool.shutdown()
        assert [r.fingerprint for r in results] == [j.fingerprint for j in jobs]
        for job, res in zip(jobs, results):
            expect = oracle_blocks(job)
            assert set(res.blocks) == set(expect)
            for kl, blk in expect.items():
                np.testing.assert_allclose(res.blocks[kl], blk,
                                           rtol=1e-12, atol=1e-12)
            assert res.flops > 0
            assert set(res.stage_flops) >= {"cls", "bsofi", "wrp"}

    def test_fleet_ranks_other_than_one_rejected(self):
        jobs = [make_job(seed=s, q=s % 4) for s in range(2)]
        for ranks in (0, 2):
            with pytest.raises(ValueError, match="fleet_ranks must be 1"):
                execute_batch(jobs, fleet_ranks=ranks)
        assert ServiceConfig().fleet_ranks == 1
        with pytest.raises(TypeError):
            ServiceConfig(fleet_ranks=2)

    def test_batch_requires_compatible_jobs(self):
        with pytest.raises(ValueError, match="compat_key"):
            execute_batch([make_job(seed=1, c=4), make_job(seed=2, c=2)])

    def test_crash_retry_recovers(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.CRASH, once=True),
            ),
            state_dir=str(tmp_path / "chaos"),
        )
        retries = []
        pool = WorkerPool(
            workers=1,
            max_retries=2,
            retry_backoff=0.01,
            task_fn=functools.partial(chaos_task, plan=plan),
            on_retry=retries.append,
        )
        job = make_job(seed=5)
        try:
            result = pool.run(job)
        finally:
            pool.shutdown()
        assert plan.fired() == 1             # the crash really happened
        assert retries == [1]
        expect = oracle_blocks(job)
        for kl, blk in expect.items():
            np.testing.assert_allclose(result.blocks[kl], blk,
                                       rtol=1e-12, atol=1e-12)

    def test_persistent_crash_raises_typed_error(self):
        pool = WorkerPool(
            workers=1, max_retries=1, retry_backoff=0.01,
            task_fn=_always_crash_task,
        )
        try:
            with pytest.raises(WorkerCrashError, match="after 1 retries"):
                pool.run(make_job(seed=0))
        finally:
            pool.shutdown()

    def test_timeout_is_typed_not_a_hang(self):
        pool = WorkerPool(workers=1, job_timeout=0.3, task_fn=_sleep_task)
        t0 = time.monotonic()
        try:
            with pytest.raises(JobTimeoutError, match="exceeded"):
                pool.run(make_job(seed=0))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        assert time.monotonic() - t0 < 5.0

    def test_closed_pool_refuses(self):
        pool = WorkerPool(workers=1)
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.run(make_job(seed=0))


# ----------------------------------------------------------------------
class TestServiceCoalescing:
    def test_n_identical_submissions_one_computation(self, tmp_path):
        gate = str(tmp_path / "gate")
        cfg = ServiceConfig(
            workers=1,
            task_fn=functools.partial(_gated_task, gate_path=gate),
        )
        job = make_job(seed=11)
        with GreensService(cfg) as svc:
            tickets = [svc.submit(job) for _ in range(5)]
            # All five are pending on one in-flight computation.
            assert svc.metrics.coalesced.value == 4
            assert svc.stats()["inflight"] == 1
            assert not any(t.done() for t in tickets)
            open(gate, "w").close()
            results = [t.result(timeout=30.0) for t in tickets]
        assert svc.metrics.executions.value == 1
        assert svc.metrics.completed.value == 5
        assert len({id(r) for r in results}) == 1  # literally one result
        assert sum(t.coalesced for t in tickets) == 4
        expect = oracle_blocks(job)
        for kl, blk in expect.items():
            np.testing.assert_allclose(results[0].blocks[kl], blk,
                                       rtol=1e-12, atol=1e-12)

    def test_post_completion_duplicate_is_cache_hit(self):
        job = make_job(seed=12)
        with GreensService(ServiceConfig(workers=1)) as svc:
            first = svc.submit(job)
            first.result(timeout=60.0)
            again = svc.submit(job)
            assert again.cache_hit and again.done()
            assert again.result() is first.result()
        assert svc.metrics.executions.value == 1
        assert svc.metrics.cache_hits.value == 1

    def test_counts_each_lookup_once(self, monkeypatch):
        job = make_job(seed=7)
        with GreensService(ServiceConfig(workers=1)) as svc:
            real_peek = svc.cache.peek
            race = []

            def peek(fingerprint):
                if race:
                    # The completion lands between this lookup and the
                    # re-check under the lock.
                    race.pop()
                    return None
                return real_peek(fingerprint)

            monkeypatch.setattr(svc.cache, "peek", peek)
            svc.submit(job).result(timeout=60.0)     # miss, computed
            assert svc.submit(job).cache_hit         # hit
            race.append(True)
            rescued = svc.submit(job)                # miss, re-check hit
            assert rescued.cache_hit and rescued.done() and not race
            stats = svc.stats()
            cache = svc.cache_stats()
        assert svc.metrics.executions.value == 1
        # Three submits, one rescued: its miss and its re-check hit
        # each count once; the first submit's re-check miss does not.
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (2, 2)
        assert "shards" not in stats["cache"]
        for key in ("hits", "misses", "evictions", "drops", "entries",
                    "bytes_used", "bytes_budget"):
            assert stats["cache"][key] == getattr(cache, key), key
        assert stats["cache"]["hit_rate"] == cache.hit_rate


class TestServiceCacheEviction:
    def test_budget_forces_recompute(self):
        a, b = make_job(seed=1), make_job(seed=2)
        with GreensService(ServiceConfig(workers=1)) as probe:
            nbytes = probe.submit(a).result(timeout=60.0).nbytes
        cfg = ServiceConfig(
            workers=1, cache_bytes=int(1.5 * nbytes)
        )
        with GreensService(cfg) as svc:
            svc.submit(a).result(timeout=60.0)
            svc.submit(b).result(timeout=60.0)   # evicts a (budget < 2x)
            assert svc.cache_stats().evictions == 1
            resubmit = svc.submit(a)
            resubmit.result(timeout=60.0)
            assert not resubmit.cache_hit
        assert svc.metrics.executions.value == 3

    def test_serve_cli_defaults_to_the_config_budget(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.cache_mb * 1024 * 1024 == ServiceConfig().cache_bytes


class TestHandoffMetrics:
    def test_steady_state_results_are_counted_in_place(self, monkeypatch):
        # The pool and its forked workers read the patched floor: even
        # 2 KiB results take a segment.
        monkeypatch.setattr(handoff, "MIN_SEGMENT_BYTES", 0)
        jobs = [make_job(seed, pattern=Pattern.COLUMNS) for seed in range(3)]
        # A budget under one result: every put is a drop, and each
        # dropped result hands its segment back to the pool.
        with GreensService(ServiceConfig(workers=1, cache_bytes=1024)) as svc:
            for job in jobs:
                blocks = svc.compute(job, timeout=60).blocks.data.copy()
                expect = np.stack(list(oracle_blocks(job).values()))
                np.testing.assert_array_equal(blocks, expect)
            stats = svc.stats()
            text = prometheus_text(svc.metrics.registry)
        assert stats["handoff"]["in_place"] == 3
        assert stats["handoff"]["copied"] == stats["handoff"]["pickled"] == 0
        assert stats["handoff"]["export_seconds"]["count"] == 3
        assert stats["cache"]["drops"] == 3
        assert 'repro_result_handoff_total{way="in_place"} 3' in text
        assert "repro_handoff_export_seconds_count 3" in text
        assert "repro_cache_drops 3" in text
        assert "repro_cache_evictions 0" in text

    def test_small_results_are_counted_pickled(self):
        with GreensService(ServiceConfig(workers=1)) as svc:
            svc.compute(make_job(0), timeout=60)
            handoffs = svc.stats()["handoff"]
        assert handoffs["pickled"] == 1
        assert handoffs["in_place"] == handoffs["copied"] == 0


class TestQueueWait:
    def test_lone_job_waits_far_less_than_it_runs(self):
        """``repro_queue_wait_seconds`` stops when a dispatcher takes the
        job off the queue, not when the job completes."""
        cfg = ServiceConfig(workers=1, task_fn=_slow_task)
        with GreensService(cfg) as svc:
            svc.submit(make_job(seed=31)).result(timeout=60.0)
            wait = svc.stats()["queue_wait_seconds"]
        assert wait["count"] == 1
        assert wait["max"] < SLOW_TASK_SECONDS / 4


class TestServiceChaos:
    def test_worker_crash_retried_with_correct_result(self, tmp_path):
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.CRASH, once=True),
            ),
            state_dir=str(tmp_path / "chaos"),
        )
        cfg = ServiceConfig(
            workers=1, max_retries=2, retry_backoff=0.01,
            chaos_plan=plan,
        )
        job = make_job(seed=21)
        with GreensService(cfg) as svc:
            result = svc.submit(job).result(timeout=60.0)
        assert plan.fired() == 1
        assert svc.metrics.retries.value == 1
        assert svc.metrics.failed.value == 0
        expect = oracle_blocks(job)
        for kl, blk in expect.items():
            np.testing.assert_allclose(result.blocks[kl], blk,
                                       rtol=1e-12, atol=1e-12)

    def test_timeout_surfaces_as_typed_error(self):
        cfg = ServiceConfig(
            workers=1, job_timeout=0.3, task_fn=_sleep_task
        )
        t0 = time.monotonic()
        svc = GreensService(cfg)
        try:
            ticket = svc.submit(make_job(seed=22))
            with pytest.raises(JobTimeoutError):
                ticket.result(timeout=30.0)
            assert svc.metrics.timeouts.value == 1
            assert svc.metrics.failed.value == 1
        finally:
            svc.shutdown(drain=False)
        assert time.monotonic() - t0 < 10.0


class TestServiceShutdown:
    def test_graceful_drain_completes_queued_work(self):
        jobs = [make_job(seed=s, q=s % 4) for s in range(6)]
        svc = GreensService(ServiceConfig(workers=2))
        tickets = [svc.submit(j) for j in jobs]
        svc.shutdown(drain=True)
        assert all(t.done() for t in tickets)
        for job, ticket in zip(jobs, tickets):
            assert ticket.result().fingerprint == job.fingerprint
        assert svc.metrics.completed.value == len(jobs)
        with pytest.raises(ServiceClosedError):
            svc.submit(make_job(seed=99))

    def test_forced_shutdown_fails_queued_tickets(self, tmp_path):
        gate = str(tmp_path / "gate-never-opened")
        cfg = ServiceConfig(
            workers=1, max_retries=0,
            retry_backoff=0.01,
            task_fn=functools.partial(_gated_task, gate_path=gate),
        )
        svc = GreensService(cfg)
        tickets = [svc.submit(make_job(seed=s)) for s in range(3)]
        # Wait for the first entry to be dispatched (stuck on the gate).
        assert _wait_until(lambda: svc.queue_depth == 2)
        svc.shutdown(drain=False, timeout=20.0)
        for ticket in tickets:
            assert _wait_until(ticket.done, timeout=20.0)
            assert isinstance(
                ticket.exception(), (ServiceClosedError, WorkerCrashError)
            )

    def test_context_manager_drains(self):
        with GreensService(ServiceConfig(workers=1)) as svc:
            ticket = svc.submit(make_job(seed=31))
        assert ticket.done() and ticket.result().flops > 0

    def test_dropped_service_is_freed_without_gc(self):
        """No reference cycle keeps a shut-down service, with its cache
        and results, alive until the cyclic GC happens to run."""
        svc = GreensService(ServiceConfig(workers=1, max_retries=1))
        svc.compute(make_job(seed=32), timeout=60)
        registry = svc.metrics.registry
        svc.shutdown()
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(svc)
            del svc
            assert ref() is None
        finally:
            gc.enable()
        # A gauge read after the service is gone is NaN, not an error.
        assert math.isnan(registry.get("repro_queue_depth").value)


class TestServiceBackpressure:
    def test_reject_policy_raises_and_counts(self, tmp_path):
        gate = str(tmp_path / "gate")
        cfg = ServiceConfig(
            workers=1, queue_capacity=1,
            backpressure=BackpressurePolicy.REJECT,
            task_fn=functools.partial(_gated_task, gate_path=gate),
        )
        with GreensService(cfg) as svc:
            blocker = svc.submit(make_job(seed=41))
            # Wait until the blocker is dispatched and the queue is empty.
            assert _wait_until(lambda: svc.queue_depth == 0)
            queued = svc.submit(make_job(seed=42))
            with pytest.raises(QueueFullError):
                svc.submit(make_job(seed=43))
            assert svc.metrics.rejected.value == 1
            open(gate, "w").close()
            blocker.result(timeout=30.0)
            queued.result(timeout=30.0)

    def test_shed_lowest_fails_victim_ticket(self, tmp_path):
        gate = str(tmp_path / "gate")
        cfg = ServiceConfig(
            workers=1, queue_capacity=1,
            backpressure=BackpressurePolicy.SHED_LOWEST,
            task_fn=functools.partial(_gated_task, gate_path=gate),
        )
        with GreensService(cfg) as svc:
            blocker = svc.submit(make_job(seed=44), priority=5)
            assert _wait_until(lambda: svc.queue_depth == 0)
            victim = svc.submit(make_job(seed=45), priority=0)
            winner = svc.submit(make_job(seed=46), priority=2)
            with pytest.raises(JobSheddedError):
                victim.result(timeout=30.0)
            assert svc.metrics.shed.value == 1
            open(gate, "w").close()
            blocker.result(timeout=30.0)
            winner.result(timeout=30.0)


class TestDispatch:
    """One queued job per dispatch, each solved inline by a worker."""

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        _telemetry.reset()
        yield
        _telemetry.reset()

    def test_each_request_traces_its_own_dispatch_and_job(self, tmp_path):
        telemetry.configure(sample_rate=1.0)
        gate = str(tmp_path / "gate")
        jobs = [make_job(seed=200 + s, q=s % 4) for s in range(4)]
        assert len({j.compat_key for j in jobs}) == 1
        cfg = ServiceConfig(
            workers=2, task_fn=functools.partial(_gated_task, gate_path=gate),
        )
        with GreensService(cfg) as svc:
            tickets = [svc.submit(j) for j in jobs]
            try:
                # Two jobs wait behind the two busy workers.
                assert _wait_until(lambda: svc.queue_depth == 2)
            finally:
                open(gate, "w").close()
            results = [t.result(timeout=60.0) for t in tickets]
        assert svc.stats()["batches"] == svc.stats()["executions"] == 4
        by_request = {
            s["attributes"]["fingerprint"]: spans
            for spans in _telemetry.collector().traces().values()
            for s in spans if s["name"] == "service.request"
        }
        for job, res in zip(jobs, results):
            assert res.rung == "direct"
            spans = by_request[job.fingerprint[:12]]
            assert sum(s["name"] == "service.dispatch" for s in spans) == 1
            worker_jobs = [s for s in spans if s["name"] == "worker.job"]
            assert [s["attributes"]["fingerprint"] for s in worker_jobs] == [
                job.fingerprint[:12]
            ]
            for kl, blk in oracle_blocks(job).items():
                np.testing.assert_allclose(res.blocks[kl], blk,
                                           rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
class TestEndToEndBurst:
    """The acceptance scenario: 100 jobs, >= 30% duplicates."""

    N_JOBS = 100
    DUPLICATE_FRACTION = 0.3

    def test_burst_exactly_one_execution_per_fingerprint(self):
        n_dup = int(self.N_JOBS * self.DUPLICATE_FRACTION)
        n_unique = self.N_JOBS - n_dup
        uniques = [make_job(seed=1000 + s, q=s % 4) for s in range(n_unique)]
        rng = np.random.default_rng(0)
        duplicates = [uniques[i] for i in
                      rng.integers(0, n_unique, size=n_dup)]
        assert len({j.fingerprint for j in uniques}) == n_unique

        cfg = ServiceConfig(workers=2)
        with GreensService(cfg) as svc:
            # Phase 1: the unique jobs, submitted as one burst.
            tickets = [svc.submit(j) for j in uniques]
            results = [t.result(timeout=120.0) for t in tickets]
            # Phase 2: the duplicates — all must be served from cache.
            dup_tickets = [svc.submit(j) for j in duplicates]
            dup_results = [t.result(timeout=120.0) for t in dup_tickets]

        stats = svc.stats()
        # Exactly one FSI execution per unique fingerprint.
        assert stats["executions"] == n_unique
        assert stats["completed"] == self.N_JOBS
        assert stats["failed"] == 0
        # Cache hit rate >= the duplicate fraction of the stream.
        assert all(t.cache_hit for t in dup_tickets)
        assert stats["cache"]["hit_rate"] >= self.DUPLICATE_FRACTION
        # Every result equals the direct fsi() oracle, block for block.
        for job, res in zip(uniques, results):
            assert res.fingerprint == job.fingerprint
            expect = oracle_blocks(job)
            assert set(res.blocks) == set(expect)
            for kl, blk in expect.items():
                np.testing.assert_allclose(res.blocks[kl], blk,
                                           rtol=1e-12, atol=1e-12)
        for job, res in zip(duplicates, dup_results):
            assert res.fingerprint == job.fingerprint
        # Flop accounting flowed back from the workers.
        assert stats["flops"]["total"] > 0
        assert set(stats["flops"]["stages"]) >= {"cls", "bsofi", "wrp"}
        # One job per dispatch.
        assert stats["batches"] == stats["executions"]
