"""Result handoff through shared memory, and the flat result screen.

* :func:`repro.service.handoff.export` moves a result's block buffer
  into the segment the pool leased for it, and
  :meth:`~repro.service.handoff.ResultSegments.receive` rebuilds it
  there, at any size; a result larger than its lease, or any result
  on a host without ``/dev/shm``, travels pickled;
* only the service process creates segments: a pool reuses the segment
  a dropped result released, never lends one a live result still
  views or a stranded lease whose worker may still be alive, creates
  one for a job larger than every idle segment or under half of it,
  and leaves none behind after shutdown, a crash, a timeout, or a
  SIGKILL of the service process;
* a worker solves every result, small and spectral ones too, straight
  into its lease and copies nothing, and falls back to a copy when it
  cannot;
* the scheduler's store-side screen still names a single poisoned
  block of a flat result.
"""

from __future__ import annotations

import gc
import importlib
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.fsi import fsi, fsi_resilient
from repro.core.patterns import (
    BlockArray, Pattern, SelectedInversion, Selection, result_buffers,
)
from repro.hubbard.hs_field import HSField
from repro.resilience.guards import GuardConfig, NumericalHealthError
from repro.service import (
    GreensJob,
    GreensService,
    JobResult,
    JobTimeoutError,
    ModelSpec,
    ServiceClosedError,
    ServiceConfig,
    WorkerCrashError,
    WorkerPool,
    execute_job,
)
from repro.service import handoff
from repro.spectral import SpectralSpec

pytestmark = pytest.mark.skipif(
    not os.path.isdir(handoff.SHM_DIR), reason="needs POSIX shm in /dev/shm"
)

SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def _segments(prefix: str) -> list[str]:
    return sorted(n for n in os.listdir(handoff.SHM_DIR) if n.startswith(prefix))


@pytest.fixture
def segments():
    """Result segments owned by this process, as a pool's are; every
    one is unlinked after the test, leased or not."""
    segs = handoff.ResultSegments(bound=1)
    yield segs
    segs.close()
    for name in _segments(segs.prefix):
        segs.release(handoff.Lease(name, 0))  # closed: unlinks it
    assert _segments(segs.prefix) == []


def _result(fp: str, blocks: dict) -> JobResult:
    return JobResult(
        fingerprint=fp,
        selection=Selection(Pattern.DIAGONAL, L=4, c=2, q=0),
        blocks=blocks,
    )


class TestExportReceive:
    def test_round_trip_through_the_lease(self, segments):
        rng = np.random.default_rng(0)
        real = _result("a", {(1, 1): rng.standard_normal((3, 3)),
                             (2, 2): rng.standard_normal((3, 3))})
        cplx = _result("b", {(2, 2): rng.standard_normal((5, 2, 2)) * 1j})
        for sent in (real, cplx):
            lease = segments.lease(sent.nbytes)
            parcel = handoff.export(sent, lease)
            assert parcel.way == "copied"
            # The parcel carries no block bytes.
            assert parcel.result.blocks.data.size == 0
            back = segments.receive(parcel, lease)
            assert list(back.blocks) == list(sent.blocks)
            np.testing.assert_array_equal(back.blocks.data, sent.blocks.data)
            assert isinstance(back.blocks.data.base, mmap.mmap)
            # The segment stays while the result views it.
            assert lease.name in _segments(segments.prefix)
        # Views of the mapping are writable slots, like any result.
        back.blocks[(2, 2)] = np.zeros((5, 2, 2))
        assert not back.blocks.data.any()

    def test_round_trip_maps_one_segment_and_unlinks_it(self, segments):
        # A job that comes back after its pool closed: its segment is
        # unlinked at once, and the result still reads its mapping.
        sent = _result("c", {(1, 1): np.full((4, 4), 7.0)})
        lease = segments.lease(sent.nbytes)
        segments.close()
        assert _segments(segments.prefix) == [lease.name]  # still out
        back = segments.receive(handoff.export(sent, lease), lease)
        assert _segments(segments.prefix) == []
        np.testing.assert_array_equal(back.blocks.data, 7.0)

    def test_small_batches_travel_in_band(self, segments, monkeypatch):
        # Only a host without /dev/shm sends a result through the pipe.
        monkeypatch.setattr(handoff, "SHM_DIR", "/nonexistent-shm")
        small = _result("d", {(1, 1): np.eye(2)})
        assert segments.lease(small.nbytes) is None
        parcel = handoff.export(small, None)
        assert parcel.way == "pickled"
        assert segments.receive(parcel, None) is small

    def test_small_batches_take_a_segment(self, segments):
        small = _result("d", {(1, 1): np.eye(2)})
        lease = segments.lease(small.nbytes)
        assert lease.size == small.nbytes == 32
        parcel = handoff.export(small, lease)
        assert parcel.way == "copied"
        back = segments.receive(parcel, lease)
        assert isinstance(back.blocks.data.base, mmap.mmap)
        np.testing.assert_array_equal(back.blocks.data[0], np.eye(2))
        del back
        # An item without blocks travels as it is, lease or not.
        lease = segments.lease(small.nbytes)
        parcel = handoff.export({"x": 1}, lease)
        assert parcel.way == "pickled"
        assert segments.receive(parcel, lease) == {"x": 1}
        assert segments.idle_bytes() == lease.size  # the unused lease

    def test_large_batches_take_a_segment(self, segments):
        big = _result("e", {(1, 1): np.ones(8 << 17)})  # 8 MiB
        lease = segments.lease(big.nbytes)
        assert lease.size == big.nbytes
        back = segments.receive(handoff.export(big, lease), lease)
        assert isinstance(back.blocks.data.base, mmap.mmap)
        assert back.blocks.data.sum() == 8 << 17

    def test_result_larger_than_its_lease_travels_pickled(self, segments):
        result = _result("f", {(1, 1): np.ones((8, 8))})
        lease = segments.lease(result.nbytes // 2)
        parcel = handoff.export(result, lease)
        assert parcel.way == "pickled"
        assert segments.receive(parcel, lease) is result
        assert segments.idle_bytes() == lease.size


# ----------------------------------------------------------------------
# pooled segments: picklable tasks whose jobs are ``Fill``s
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Fill:
    """A test job: ``n`` 16x16 float64 blocks, every entry ``value``."""

    value: float
    n: int

    @property
    def result_nbytes(self) -> int:
        return self.n * 16 * 16 * 8


def _filled(job: Fill, **kwargs) -> JobResult:
    """The result of ``job``, allocated like a solve's (so into the
    lease); a negative value SIGKILLs the worker after that, an infinite
    one hangs it."""
    out = SelectedInversion.empty(
        Selection(Pattern.FULL_DIAGONAL, L=job.n, c=1, q=0), (16, 16)
    )
    out.data[:] = job.value
    if job.value < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    if math.isinf(job.value):
        time.sleep(60)
    return _result(f"{job.value}-{job.n}", out)


def _owned(pool) -> list[str]:
    """The pool's segments in /dev/shm."""
    return _segments(pool.segments.prefix)


class TestNoSegmentLeftBehind:
    def test_killed_worker_leaves_no_pool_segment(self):
        pool = WorkerPool(workers=1, max_retries=0, retry_backoff=0.0,
                          task_fn=_filled)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run(Fill(-1.0, 8))  # died holding its lease
            # The recycle joined the worker: the lease is idle again.
            [name] = _owned(pool)
            assert pool.segments.idle_bytes() == Fill(-1.0, 8).result_nbytes
        finally:
            pool.shutdown()
        assert _owned(pool) == []

    def test_timed_out_task_leaves_no_pool_segment(self):
        pool = WorkerPool(workers=1, job_timeout=0.5, task_fn=_filled)
        try:
            with pytest.raises(JobTimeoutError):
                pool.run(Fill(math.inf, 8))
            [name] = _owned(pool)
            assert pool.segments.idle_bytes() == Fill(0.0, 8).result_nbytes
            res = pool.run(Fill(2.0, 8))  # the same segment, lent again
            assert _owned(pool) == [name]
            np.testing.assert_array_equal(res.blocks.data, 2.0)
        finally:
            pool.shutdown()
        assert _owned(pool) == []

    def test_shutdown_during_a_job_leaves_no_pool_segment(self):
        pool = WorkerPool(workers=1, task_fn=_filled)
        errors: list[Exception] = []

        def run() -> None:
            try:
                pool.run(Fill(math.inf, 8))
            except Exception as exc:
                errors.append(exc)

        def solving() -> bool:
            """Whether the worker has written into its lease."""
            names = _owned(pool)
            if not names:
                return False
            path = os.path.join(handoff.SHM_DIR, names[0])
            return bool(np.isinf(np.fromfile(path, np.float64, count=1)).all())

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while not solving() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert solving()  # the hanging job holds its lease
        pool.shutdown(cancel_futures=True)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [type(exc) for exc in errors] == [ServiceClosedError]
        assert _owned(pool) == []

    def test_shutdown_before_submit_is_service_closed(
        self, monkeypatch
    ):
        """A shutdown between ``_current()`` and ``submit`` is typed."""
        pool = WorkerPool(workers=1, task_fn=_filled)
        current = pool._current

        def current_then_shutdown():
            got = current()
            pool.shutdown()
            return got

        monkeypatch.setattr(pool, "_current", current_then_shutdown)
        with pytest.raises(ServiceClosedError):
            pool.run(Fill(1.0, 8))
        assert _owned(pool) == []

    def test_shutdown_after_the_lease_releases_it(self, monkeypatch):
        pool = WorkerPool(workers=1, task_fn=_filled)
        lease = pool.segments.lease
        leased = []

        def lease_then_shutdown(nbytes):
            leased.append(lease(nbytes))
            pool.shutdown()
            return leased[-1]

        monkeypatch.setattr(pool.segments, "lease", lease_then_shutdown)
        with pytest.raises(ServiceClosedError):
            pool.run(Fill(1.0, 8))
        assert leased[0] is not None
        assert _owned(pool) == []  # released, and unlinked as closed

    def test_shutdown_before_submit_leaves_the_breaker_alone(
        self, monkeypatch
    ):
        field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(3))
        job = GreensJob.from_field(SPEC, field, c=4, pattern=Pattern.DIAGONAL, q=1)
        svc = GreensService(ServiceConfig(workers=1))
        pool = svc._pool
        current = pool._current

        def current_then_shutdown():
            got = current()
            pool.shutdown()
            return got

        verdicts = []
        monkeypatch.setattr(pool, "_current", current_then_shutdown)
        monkeypatch.setattr(svc._breaker, "record_success",
                            lambda: verdicts.append("success"))
        monkeypatch.setattr(svc._breaker, "record_failure",
                            lambda: verdicts.append("failure"))
        try:
            with pytest.raises(ServiceClosedError):
                svc.compute(job, timeout=60)
            assert verdicts == []
        finally:
            svc.shutdown()

    def test_service_leaves_no_segments(self):
        field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(3))
        job = GreensJob.from_field(SPEC, field, c=4, pattern=Pattern.COLUMNS, q=1)
        with GreensService(ServiceConfig(workers=1)) as svc:
            prefix = svc._pool.segments.prefix
            result = svc.compute(job, timeout=60)
            assert isinstance(result.blocks.data.base, mmap.mmap)
            assert len(_segments(prefix)) == 1
        assert _segments(prefix) == []


class TestPooledSegments:
    def test_dropped_result_segment_is_reused(self):
        pool = WorkerPool(workers=1, task_fn=_filled)
        try:
            first = pool.run(Fill(1.0, 8))
            [name] = _owned(pool)
            assert isinstance(first.blocks.data.base, mmap.mmap)
            assert pool.segments.idle_bytes() == 0
            del first
            assert pool.segments.idle_bytes() == os.path.getsize(
                os.path.join(handoff.SHM_DIR, name))
            second = pool.run(Fill(2.0, 8))
            assert _owned(pool) == [name]  # no new segment
            assert pool.segments.idle_bytes() == 0
            # Bitwise what the task returns in this process.
            inline = _filled(Fill(2.0, 8))
            np.testing.assert_array_equal(second.blocks.data, inline.blocks.data)
            assert list(second.blocks) == list(inline.blocks)
        finally:
            pool.shutdown()

    def test_live_result_segment_is_never_lent(self):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            held = pool.run(Fill(1.0, 8))
            expect = held.blocks.data.copy()
            kept = []
            for value in range(2, 8):
                res = pool.run(Fill(float(value), 8))
                np.testing.assert_array_equal(res.blocks.data, value)
                if value % 2:
                    kept.append(res)  # some stay live, some are dropped
                del res
            np.testing.assert_array_equal(held.blocks.data, expect)
            for res in kept:
                assert res.blocks.data[0, 0, 0] % 2 == 1
                assert (res.blocks.data == res.blocks.data[0, 0, 0]).all()
            # Three live results, at most two idle segments.
            assert 3 <= len(_owned(pool)) <= 5
        finally:
            pool.shutdown()

    def test_cached_entry_segment_is_never_lent(self):
        fields = [HSField.random(SPEC.L, SPEC.N, np.random.default_rng(s))
                  for s in range(4)]
        jobs = [GreensJob.from_field(SPEC, f, c=4, pattern=Pattern.COLUMNS, q=1)
                for f in fields]
        with GreensService(ServiceConfig(workers=1)) as svc:
            expect = svc.compute(jobs[0], timeout=60).blocks.data.copy()
            for job in jobs[1:]:
                svc.compute(job, timeout=60)  # dropped by the caller
            cached = svc.cache.peek(jobs[0].fingerprint)
            assert isinstance(cached.blocks.data.base, mmap.mmap)
            np.testing.assert_array_equal(cached.blocks.data, expect)

    def test_too_small_idle_segment_falls_back_and_is_kept(self):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            pool.run(Fill(1.0, 2))  # dropped at once: small one idle
            [small] = _owned(pool)
            small_bytes = pool.segments.idle_bytes()
            big = pool.run(Fill(2.0, 32))  # a new segment of its own
            assert len(_owned(pool)) == 2 and small in _owned(pool)
            assert pool.segments.idle_bytes() == small_bytes
            np.testing.assert_array_equal(big.blocks.data, 2.0)
            del big
            assert pool.segments.idle_bytes() > 2 * small_bytes
        finally:
            pool.shutdown()

    def test_idle_bound_unlinks_the_smallest(self):
        pool = WorkerPool(workers=1, task_fn=_filled)
        try:
            pool.run(Fill(1.0, 2))
            [small] = _owned(pool)
            pool.run(Fill(2.0, 32))  # a new segment, then both idle
            [large] = [n for n in _owned(pool) if n != small]
            assert _owned(pool) == [large]
            assert pool.segments.idle_bytes() == os.path.getsize(
                os.path.join(handoff.SHM_DIR, large))
        finally:
            pool.shutdown()

    def test_stranded_lease_is_not_lent_before_its_generation_is_reaped(
        self, segments
    ):
        stranded = segments.lease(4096)
        segments.strand(stranded, generation=0)
        # A worker of generation 0 may still write into it.
        other = segments.lease(4096)
        assert other.name != stranded.name
        assert segments.idle_bytes() == 0
        segments.reaped(0)
        assert segments.idle_bytes() == 0
        segments.reaped(1)
        assert segments.lease(4096) == stranded

    def test_concurrent_jobs_never_share_a_segment(self):
        # More workers than cores and a short switch interval: a segment
        # lent to two jobs at once would show one job's value in the
        # other's result.
        pool = WorkerPool(workers=3, task_fn=_filled)
        kept: list[list[JobResult]] = [[] for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def client(i: int) -> None:
            for j in range(8):
                value = float(10 * i + j)
                res = pool.run(Fill(value, (2, 8, 32)[j % 3]))
                if j % 2:
                    kept[i].append(res)  # some stay live, some are dropped
                assert (res.blocks.data == value).all()
                del res

        try:
            threads = [threading.Thread(target=client, args=(i,), daemon=True)
                       for i in range(len(kept))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        for i, results in enumerate(kept):
            assert len(results) == 4
            for res in results:
                assert (res.blocks.data == res.blocks.data.flat[0]).all()
                assert res.blocks.data.flat[0] // 10 == i
        assert _owned(pool) == []

    def test_release_in_gc_on_another_thread_does_not_deadlock(self):
        pool = WorkerPool(workers=1, task_fn=_filled)
        gc.disable()
        try:
            res = pool.run(Fill(1.0, 8))
            cycle = {"result": res}
            cycle["self"] = cycle  # only the collector frees it
            del res, cycle
            collector = threading.Thread(target=gc.collect, daemon=True)
            with pool._lock:  # the pool's executor lock is held
                collector.start()
                collector.join(timeout=10)
            assert not collector.is_alive()
            assert pool.segments.idle_bytes() > 0
            # Re-entrant: a collection on a thread inside the idle lock.
            res = pool.run(Fill(2.0, 8))
            cycle = {"result": res}
            cycle["self"] = cycle
            del res, cycle

            def collect_inside_idle_lock():
                with pool.segments._lock:
                    gc.collect()

            collector = threading.Thread(target=collect_inside_idle_lock,
                                         daemon=True)
            collector.start()
            collector.join(timeout=10)
            assert not collector.is_alive()
            assert pool.segments.idle_bytes() > 0
        finally:
            gc.enable()
            pool.shutdown()

    def test_crash_and_recycle_keep_idle_segments(self):
        pool = WorkerPool(workers=1, max_retries=0, retry_backoff=0.0,
                          task_fn=_filled)
        try:
            pool.run(Fill(1.0, 8))
            [name] = _owned(pool)
            with pytest.raises(WorkerCrashError):
                pool.run(Fill(-1.0, 8))  # leased, then its worker died
            # The recycle joined the dead worker and left the segment;
            # the crashed job's lease is idle again.
            assert _owned(pool) == [name]
            assert pool.segments.idle_bytes() > 0
            res = pool.run(Fill(3.0, 8))
            assert _owned(pool) == [name]
            np.testing.assert_array_equal(res.blocks.data, 3.0)
        finally:
            pool.shutdown()
        assert _owned(pool) == []

    def test_shutdown_unlinks_pooled_segments(self):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            held = pool.run(Fill(1.0, 8))
            pool.run(Fill(2.0, 8))
            pool.run(Fill(3.0, 32))  # the idle one is too small
            assert len(_owned(pool)) == 3  # one held, two idle
        finally:
            pool.shutdown()
        assert _owned(pool) == []
        assert pool.segments.idle_bytes() == 0
        # A result held across shutdown still reads its mapping.
        np.testing.assert_array_equal(held.blocks.data, 1.0)
        del held

    def test_killed_service_leaves_no_segments(self):
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro.core.patterns import Pattern
            from repro.hubbard.hs_field import HSField
            from repro.service import (
                GreensJob, GreensService, ModelSpec, ServiceConfig, handoff,
            )

            spec = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)
            svc = GreensService(ServiceConfig(workers=2))
            for seed in range(3):
                field = HSField.random(spec.L, spec.N,
                                       np.random.default_rng(seed))
                svc.compute(GreensJob.from_field(
                    spec, field, c=4, pattern=Pattern.COLUMNS, q=1))
            pool = svc._pool
            print(pool.segments.prefix, *pool._executor._processes,
                  flush=True)
            time.sleep(300)
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True)
        workers: list[str] = []
        try:
            pooled, *workers = proc.stdout.readline().split()
            assert _segments(pooled)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 30
            while _segments(pooled) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _segments(pooled) == []
            # The orphaned workers exited with their parent.
            assert not any(_running(int(pid)) for pid in workers)
        finally:
            proc.kill()
            proc.stdout.close()
            for pid in workers:  # on failure, leave no orphan behind
                if _running(int(pid)):
                    os.kill(int(pid), signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether ``pid`` is alive and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ----------------------------------------------------------------------
# solved in place: the lease is the first large result's buffer
# ----------------------------------------------------------------------

def _job(seed: int, pattern: Pattern = Pattern.COLUMNS, c: int = 4,
         spectral: SpectralSpec | None = None) -> GreensJob:
    field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(seed))
    return GreensJob.from_field(SPEC, field, c=c, pattern=pattern, q=1,
                                spectral=spectral)


def _inline(job: GreensJob, solve=fsi, **kwargs) -> np.ndarray:
    pc = job.spec.build_model().build_matrix(job.field(), job.spec.sigma)
    return solve(pc, job.c, job.pattern, q=job.q, **kwargs).selected.data


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a ``handoff`` function in every process: the
    counter is shared memory that forked pool workers inherit."""

    def install(name: str):
        calls = multiprocessing.Value("i", 0)
        real = getattr(handoff, name)

        def counted(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(handoff, name, counted)
        return calls

    return install


def _served(pool: WorkerPool, job: GreensJob) -> np.ndarray:
    """Serve ``job`` through ``pool``; a copy of its blocks (the result,
    and with it the segment, is dropped at once)."""
    return pool.run(job).blocks.data.copy()


class TestSolvedInPlace:
    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_served_in_place_equals_inline_fsi(self, count_calls, pattern):
        copies = count_calls("_copy_in")
        ways: list[str] = []
        pool = WorkerPool(workers=1, on_handoff=lambda way, _s: ways.append(way))
        try:
            jobs = [_job(seed, pattern) for seed in range(4)]
            served = [_served(pool, job) for job in jobs]
        finally:
            pool.shutdown()
        # The first job of the new pool too: its lease is sized up front.
        assert ways == ["in_place"] * 4
        assert copies.value == 0
        for job, blocks in zip(jobs, served):
            np.testing.assert_array_equal(blocks, _inline(job))

    def test_job_larger_than_every_idle_segment_gets_a_new_one(self):
        ways: list[str] = []
        pool = WorkerPool(workers=2, on_handoff=lambda way, _s: ways.append(way))
        try:
            small = _job(0, Pattern.DIAGONAL)
            _served(pool, small)  # its segment goes idle: 256 bytes
            assert pool.segments.idle_bytes() == small.result_nbytes
            big = _job(1, Pattern.COLUMNS)
            blocks = _served(pool, big)
            assert len(_owned(pool)) == 2  # the small one is kept
            assert pool.segments.idle_bytes() == (
                small.result_nbytes + big.result_nbytes
            )
        finally:
            pool.shutdown()
        assert ways == ["in_place", "in_place"]
        np.testing.assert_array_equal(blocks, _inline(big))

    def test_small_result_never_pins_a_large_segment(self):
        # A 4 KiB COLUMNS result goes idle; a 256-byte DIAGONAL result and
        # a 1 KiB spectral one would fit its segment, but each gets one
        # at most twice its size.
        workers = 2
        pool = WorkerPool(workers=workers)
        try:
            _served(pool, _job(0, Pattern.COLUMNS, c=2))
            assert pool.segments.idle_bytes() == 4096
            held = [
                pool.run(_job(1, Pattern.DIAGONAL)),
                pool.run(_job(2, Pattern.DIAGONAL,
                              spectral=SpectralSpec.linear(-2.0, -1.0, 2, 0.1))),
            ]
            sizes = [len(res.blocks.data.base) for res in held]
            assert [res.blocks.data.nbytes for res in held] == [256, 1024]
            for res, size in zip(held, sizes):
                assert res.blocks.data.nbytes <= size <= 2 * res.blocks.data.nbytes
            assert pool.segments.held_bytes() == sum(sizes)
            assert pool.segments.idle_bytes() == 4096
            assert len(_owned(pool)) - len(held) <= workers
            del held, res
            assert pool.segments.held_bytes() == 0
            assert len(_owned(pool)) <= workers  # all idle, within the bound
        finally:
            pool.shutdown()

    def test_alternating_sizes_recreate_the_small_segment(self):
        # One idle segment at most: each release of a DIAGONAL segment
        # finds the FULL_DIAGONAL one idle, and the smaller is unlinked.
        pool = WorkerPool(workers=1)
        after = []
        try:
            for seed in range(6):
                pattern = (Pattern.DIAGONAL, Pattern.FULL_DIAGONAL)[seed % 2]
                job = _job(seed, pattern)
                np.testing.assert_array_equal(_served(pool, job), _inline(job))
                after.append(pool.segments.created)
        finally:
            pool.shutdown()
        # Every DIAGONAL job makes a segment; FULL_DIAGONAL only the first.
        assert after == [1, 2, 3, 3, 4, 4]

    def test_tripped_direct_rung_is_served_from_a_finer_rung(
        self, monkeypatch
    ):
        fsi_module = importlib.import_module("repro.core.fsi")
        real = fsi_module.run_stages
        took = multiprocessing.Value("i", 0)

        def trip_direct(pc, selection, *args, **kwargs):
            selected, seeds, report = real(pc, selection, *args, **kwargs)
            if selection.c == 4:
                if isinstance(selected.data.base, mmap.mmap):
                    with took.get_lock():
                        took.value += 1
                raise NumericalHealthError(
                    "tripped after WRP", check="finite", site="result"
                )
            return selected, seeds, report

        monkeypatch.setattr(fsi_module, "run_stages", trip_direct)
        ways: list[str] = []
        pool = WorkerPool(workers=1, guards=GuardConfig(),
                          on_handoff=lambda way, _s: ways.append(way))
        try:
            job = _job(1)
            res = pool.run(job)
            assert res.rung == "c=2"
            blocks = res.blocks.data.copy()
            del res
        finally:
            pool.shutdown()
        assert took.value == 1  # the direct rung wrote into the lease
        assert ways == ["copied"]
        np.testing.assert_array_equal(
            blocks, _inline(job, fsi_resilient, guards=GuardConfig())
        )

    def test_small_and_spectral_results_are_solved_in_place(
        self, count_calls
    ):
        # A 4 KiB COLUMNS result leaves a 4 KiB idle segment.  The
        # 256-byte DIAGONAL result gets a segment of its own; the 2 KiB
        # spectral result takes the idle one.
        copies = count_calls("_copy_in")
        ways: list[str] = []
        pool = WorkerPool(workers=1, on_handoff=lambda way, _s: ways.append(way))
        try:
            _served(pool, _job(0, Pattern.COLUMNS, c=2))
            [large] = _owned(pool)
            small = _job(1, Pattern.DIAGONAL)
            spectral = _job(2, Pattern.DIAGONAL,
                            spectral=SpectralSpec.linear(-2.0, -1.0, 4, 0.1))
            np.testing.assert_array_equal(_served(pool, small), _inline(small))
            served = _served(pool, spectral)
            # One idle segment at most: the 256-byte one was unlinked.
            assert _owned(pool) == [large]
        finally:
            pool.shutdown()
        assert ways == ["in_place"] * 3
        assert copies.value == 0
        assert served.shape == (2, 4, 4, 4)
        np.testing.assert_array_equal(served, execute_job(spectral).blocks.data)

    @pytest.mark.parametrize("rung, finest_kept, expected_way", [
        ("direct", 4, "in_place"), ("c=2", 2, "copied"), ("c=1", 1, "copied"),
        ("udt", 0, "in_place"),
    ])
    def test_every_rung_is_served_bitwise_inline(self, monkeypatch, rung,
                                                 finest_kept, expected_way):
        # A 256-byte DIAGONAL result comes back through its lease on
        # every rung; a finer rung filters its result into a private
        # buffer, which is copied.
        fsi_module = importlib.import_module("repro.core.fsi")
        real = fsi_module.run_stages

        def trip_coarser(pc, selection, *args, **kwargs):
            if selection.c > finest_kept:
                raise NumericalHealthError(
                    "tripped", check="finite", site="result"
                )
            return real(pc, selection, *args, **kwargs)

        monkeypatch.setattr(fsi_module, "run_stages", trip_coarser)
        ways: list[str] = []
        pool = WorkerPool(workers=1, guards=GuardConfig(),
                          on_handoff=lambda way, _s: ways.append(way))
        job = _job(1, Pattern.DIAGONAL)
        try:
            res = pool.run(job)
            assert res.rung == rung
            assert isinstance(res.blocks.data.base, mmap.mmap)
            blocks = res.blocks.data.copy()
            del res
        finally:
            pool.shutdown()
        assert ways == [expected_way]
        np.testing.assert_array_equal(
            blocks, _inline(job, fsi_resilient, guards=GuardConfig())
        )


class TestResultNbytes:
    """``GreensJob.result_nbytes``, which sizes each job's lease, is
    what every serving path of :func:`execute_job` returns."""

    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_fsi_every_pattern(self, pattern):
        job = _job(0, pattern)
        assert execute_job(job).blocks.nbytes == job.result_nbytes

    @pytest.mark.parametrize(
        "rung, finest_kept", [("direct", 4), ("c=2", 2), ("c=1", 1), ("udt", 0)]
    )
    def test_fsi_resilient_every_rung(self, monkeypatch, rung, finest_kept):
        fsi_module = importlib.import_module("repro.core.fsi")
        real = fsi_module.run_stages

        def trip_coarser(pc, selection, *args, **kwargs):
            if selection.c > finest_kept:
                raise NumericalHealthError(
                    "tripped", check="finite", site="result"
                )
            return real(pc, selection, *args, **kwargs)

        monkeypatch.setattr(fsi_module, "run_stages", trip_coarser)
        job = _job(1, Pattern.DIAGONAL)
        res = execute_job(job, guards=GuardConfig())
        assert res.rung == rung
        assert res.blocks.nbytes == job.result_nbytes

    def test_spectral_chunk(self):
        grid = SpectralSpec.linear(-2.0, -1.0, 6, 0.1)
        job = _job(3, Pattern.DIAGONAL, spectral=grid.chunk_specs(4)[1])
        res = execute_job(job)
        assert res.rung == "spectral(2)"
        assert res.blocks.nbytes == job.result_nbytes


class TestArena:
    SELECTION = Selection(Pattern.COLUMNS, L=8, c=4, q=1)

    def _solve(self, arena: handoff.Arena) -> SelectedInversion:
        """A result allocated like a solve's, block ``i`` filled with
        ``i``."""
        with result_buffers(arena):
            out = SelectedInversion.empty(self.SELECTION, (4, 4))
        out.data[:] = np.arange(len(out))[:, None, None]
        return out

    def test_hollow_results_do_not_pin_the_mapping(self, segments):
        lease = segments.lease(2048)
        arena = handoff.Arena(lease)
        out = self._solve(arena)
        expect = out.data.copy()
        assert isinstance(out.data.base, mmap.mmap)
        parcel = handoff.export(_result("g", out), lease, arena)
        assert parcel.way == "in_place"
        assert parcel.export_seconds >= 0.0
        mapping = weakref.ref(out.data.base)
        del arena, out
        gc.collect()
        assert mapping() is None  # the parcel keeps nothing of it
        assert parcel.result.blocks.data.base is None
        back = segments.receive(parcel, lease)
        np.testing.assert_array_equal(back.blocks.data, expect)

    def test_only_the_first_allocation_is_offered(self, segments):
        # The 256-byte first result takes the lease; the 2 KiB one after
        # it would fit too, but is never offered it.
        arena = handoff.Arena(segments.lease(4096))
        with result_buffers(arena):
            small = SelectedInversion.empty(
                Selection(Pattern.DIAGONAL, L=8, c=4, q=1), (4, 4)
            )
            big = SelectedInversion.empty(self.SELECTION, (4, 4))
        assert isinstance(small.data.base, mmap.mmap)
        assert big.data.base is None

    def test_out_of_place_buffer_in_the_lease_is_copied_out_first(
        self, segments
    ):
        lease = segments.lease(2048)
        arena = handoff.Arena(lease)
        out = self._solve(arena)
        # A result over blocks 4.. of the arena's buffer: it lies in the
        # lease at offset 512, and its copy to offset 0 overlaps it.
        tail = BlockArray(list(out)[4:], out.data[4:])
        expect = tail.data.copy()
        parcel = handoff.export(_result("h", tail), lease, arena)
        assert parcel.way == "copied"
        del arena, out, tail
        back = segments.receive(parcel, lease)
        np.testing.assert_array_equal(back.blocks.data, expect)


# ----------------------------------------------------------------------
# the store-side screen over the flat buffer
# ----------------------------------------------------------------------

class TestResultScreen:
    def test_single_poisoned_block_is_named(self):
        blocks = {(k, l): np.ones((2, 2)) for k in (1, 2) for l in (3, 4)}
        result = JobResult("f" * 16, Selection(Pattern.DIAGONAL, L=4, c=2, q=0),
                           BlockArray.from_mapping(blocks))
        result.blocks[(2, 3)] = np.array([[1.0, np.nan], [0.0, 1.0]])
        svc = GreensService(ServiceConfig(workers=1, guards=GuardConfig()))
        try:
            with pytest.raises(NumericalHealthError, match=r"\(2, 3\)"):
                svc._screen_result(result)
            result.blocks[(2, 3)] = np.ones((2, 2))
            svc._screen_result(result)
        finally:
            svc.shutdown()
