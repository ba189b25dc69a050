"""Result handoff through shared memory, and the flat result screen.

* :func:`repro.service.handoff.export` / :func:`receive` round-trip a
  batch's block buffers through one segment, which is gone from
  ``/dev/shm`` as soon as the service process has mapped it;
* a worker that fails after creating its segment unlinks it, and one
  that is killed leaves a segment the pool sweeps on recycle and
  shutdown;
* a pool reuses the segment a dropped result released, never lends one
  a live result still views, and leaves none behind after shutdown, a
  crash, or a SIGKILL of the service process;
* a worker solves the first large result of a leased batch straight
  into the lease and copies nothing, falls back to a copy or a fresh
  segment when it cannot, and never maps the lease for small results;
* the scheduler's store-side screen still names a single poisoned
  block of a flat result.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
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
from multiprocessing import shared_memory

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
    ModelSpec,
    ServiceConfig,
    WorkerCrashError,
    WorkerPool,
)
from repro.service import handoff
from repro.spectral import SpectralSpec
from repro.transport.process import untrack_segment

pytestmark = pytest.mark.skipif(
    not os.path.isdir(handoff.SHM_DIR), reason="needs POSIX shm in /dev/shm"
)

SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def _segments(prefix: str) -> list[str]:
    return sorted(n for n in os.listdir(handoff.SHM_DIR) if n.startswith(prefix))


@pytest.fixture
def no_floor(monkeypatch):
    """Send even these tiny test results through a segment (forked pool
    workers inherit the patched floor)."""
    monkeypatch.setattr(handoff, "MIN_SEGMENT_BYTES", 0)


def _result(fp: str, blocks: dict) -> JobResult:
    return JobResult(
        fingerprint=fp,
        selection=Selection(Pattern.DIAGONAL, L=4, c=2, q=0),
        blocks=blocks,
    )


class TestExportReceive:
    def test_round_trip_maps_one_segment_and_unlinks_it(self, no_floor):
        rng = np.random.default_rng(0)
        real = _result("a", {(1, 1): rng.standard_normal((3, 3)),
                             (2, 2): rng.standard_normal((3, 3))})
        cplx = _result("b", {(2, 2): rng.standard_normal((5, 2, 2)) * 1j})
        name = handoff.pool_prefix() + "0-0"
        parcel = handoff.export([real, cplx, {"not": "a result"}], name)
        assert parcel.segment == name
        assert _segments(name) == [name]
        # The parcel carries no block bytes.
        assert all(r.blocks.data.size == 0 for r in parcel.results[:2])
        got = handoff.receive(parcel)
        assert _segments(name) == []
        for sent, back in zip((real, cplx), got):
            assert list(back.blocks) == list(sent.blocks)
            np.testing.assert_array_equal(back.blocks.data, sent.blocks.data)
            assert isinstance(back.blocks.data.base, mmap.mmap)
        assert got[2] == {"not": "a result"}
        # Views of the mapping are writable slots, like any result.
        got[0].blocks[(1, 1)] = np.zeros((3, 3))
        assert not got[0].blocks.data[0].any()

    def test_failure_after_create_unlinks_the_segment(self, monkeypatch, no_floor):
        def refuse(name):
            raise RuntimeError("handover failed")

        monkeypatch.setattr(handoff, "untrack_segment", refuse)
        name = handoff.pool_prefix() + "0-0"
        with pytest.raises(RuntimeError, match="handover"):
            handoff.export([_result("c", {(1, 1): np.eye(2)})], name)
        assert _segments(name) == []

    def test_small_batches_travel_in_band(self):
        small = _result("d", {(1, 1): np.eye(2)})
        parcel = handoff.export([small, {"x": 1}], handoff.pool_prefix() + "0-0")
        assert parcel.segment is None
        assert handoff.receive(parcel) == [small, {"x": 1}]

    def test_large_batches_take_a_segment(self):
        big = _result("e", {(1, 1): np.ones(handoff.MIN_SEGMENT_BYTES // 8)})
        name = handoff.pool_prefix() + "0-0"
        [back] = handoff.receive(handoff.export([big], name))
        assert isinstance(back.blocks.data.base, mmap.mmap)
        assert back.blocks.data.sum() == handoff.MIN_SEGMENT_BYTES // 8
        assert _segments(name) == []


# ----------------------------------------------------------------------
# killed workers: picklable module-level task (the fork-based pool
# inherits the prefix global set before the first submit)
# ----------------------------------------------------------------------

_ORPHAN_PREFIX = ""


def _create_segment_then_die(jobs, fleet_ranks=1, threads_per_rank=1, **kwargs):
    shm = shared_memory.SharedMemory(
        name=f"{_ORPHAN_PREFIX}0-orphan", create=True, size=4096
    )
    try:
        os.kill(os.getpid(), signal.SIGKILL)
    finally:
        shm.close()


class TestSweep:
    def test_killed_worker_segment_is_swept(self, monkeypatch):
        pool = WorkerPool(workers=1, max_retries=0, retry_backoff=0.0,
                          task_fn=_create_segment_then_die)
        monkeypatch.setitem(globals(), "_ORPHAN_PREFIX", pool.segment_prefix)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run_batch([])
            # The crash recycled the pool and swept generation 0.
            assert _segments(pool.segment_prefix) == []
        finally:
            pool.shutdown()
        assert _segments(pool.segment_prefix) == []

    def test_shutdown_sweeps_and_keeps_live_generations(self):
        pool = WorkerPool(workers=1)
        prefix = pool.segment_prefix
        for name in (f"{prefix}0-7", f"{prefix}1-7"):
            shm = shared_memory.SharedMemory(name=name, create=True, size=64)
            shm.close()
        try:
            assert handoff.sweep(prefix, 1) == [f"{prefix}0-7"]
            assert _segments(prefix) == [f"{prefix}1-7"]
        finally:
            pool.shutdown()
        assert _segments(prefix) == [f"{prefix}1-7"]  # generation 1 never ran
        handoff.sweep(prefix, 2)
        assert _segments(prefix) == []

    def test_service_leaves_no_segments(self, no_floor):
        field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(3))
        job = GreensJob.from_field(SPEC, field, c=4, pattern=Pattern.COLUMNS, q=1)
        with GreensService(ServiceConfig(workers=1)) as svc:
            prefix = svc._pool.segment_prefix
            result = svc.compute(job, timeout=60)
            assert isinstance(result.blocks.data.base, mmap.mmap)
            assert _segments(prefix) == []
        assert _segments(prefix) == []


# ----------------------------------------------------------------------
# pooled segments: a picklable task whose "jobs" are (value, n_blocks)
# ----------------------------------------------------------------------

def _filled(jobs, fleet_ranks=1, threads_per_rank=1, **kwargs):
    """One result per ``(value, n_blocks)``, every entry ``value``; a
    negative value SIGKILLs the worker."""
    out = []
    for value, n in jobs:
        if value < 0:
            os.kill(os.getpid(), signal.SIGKILL)
        blocks = {(k, 1): np.full((16, 16), value) for k in range(1, n + 1)}
        out.append(_result(f"{value}-{n}", BlockArray.from_mapping(blocks)))
    return out


def _owned(pool) -> list[str]:
    """The pool's segments in /dev/shm: pooled and fresh ones."""
    return _segments(pool.segments.prefix) + _segments(pool.segment_prefix)


class TestPooledSegments:
    def test_dropped_result_segment_is_reused(self, no_floor):
        pool = WorkerPool(workers=1, task_fn=_filled)
        try:
            [first] = pool.run_batch([(1.0, 8)])
            [name] = _owned(pool)
            assert name.startswith(pool.segments.prefix)
            assert isinstance(first.blocks.data.base, mmap.mmap)
            assert pool.segments.idle_bytes() == 0
            del first
            assert pool.segments.idle_bytes() == os.path.getsize(
                os.path.join(handoff.SHM_DIR, name))
            [second] = pool.run_batch([(2.0, 8)])
            assert _owned(pool) == [name]  # no new segment
            assert pool.segments.idle_bytes() == 0
            # Bitwise what the fresh-segment path returns.
            [fresh] = handoff.receive(handoff.export(
                _filled([(2.0, 8)]), handoff.pool_prefix() + "0-0"))
            np.testing.assert_array_equal(second.blocks.data, fresh.blocks.data)
            assert list(second.blocks) == list(fresh.blocks)
        finally:
            pool.shutdown()

    def test_live_result_segment_is_never_lent(self, no_floor):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            [held] = pool.run_batch([(1.0, 8)])
            expect = held.blocks.data.copy()
            kept = []
            for value in range(2, 8):
                [res] = pool.run_batch([(float(value), 8)])
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

    def test_cached_entry_segment_is_never_lent(self, no_floor):
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

    def test_too_small_idle_segment_falls_back_and_is_kept(self, no_floor):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            pool.run_batch([(1.0, 2)])  # dropped at once: small one idle
            [small] = _owned(pool)
            small_bytes = pool.segments.idle_bytes()
            [big] = pool.run_batch([(2.0, 32)])
            assert len(_owned(pool)) == 2 and small in _owned(pool)
            assert pool.segments.idle_bytes() == small_bytes
            np.testing.assert_array_equal(big.blocks.data, 2.0)
            del big
            assert pool.segments.idle_bytes() > 2 * small_bytes
        finally:
            pool.shutdown()

    def test_idle_bound_unlinks_the_smallest(self, no_floor):
        pool = WorkerPool(workers=1, task_fn=_filled)
        try:
            pool.run_batch([(1.0, 2)])
            [small] = _owned(pool)
            pool.run_batch([(2.0, 32)])  # falls back, then both idle
            [large] = [n for n in _owned(pool) if n != small]
            assert _owned(pool) == [large]
            assert pool.segments.idle_bytes() == os.path.getsize(
                os.path.join(handoff.SHM_DIR, large))
        finally:
            pool.shutdown()

    def test_release_in_gc_on_another_thread_does_not_deadlock(self, no_floor):
        pool = WorkerPool(workers=1, task_fn=_filled)
        gc.disable()
        try:
            [res] = pool.run_batch([(1.0, 8)])
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
            [res] = pool.run_batch([(2.0, 8)])
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

    def test_crash_and_recycle_keep_idle_segments(self, no_floor):
        pool = WorkerPool(workers=1, max_retries=0, retry_backoff=0.0,
                          task_fn=_filled)
        try:
            pool.run_batch([(1.0, 8)])
            [name] = _owned(pool)
            with pytest.raises(WorkerCrashError):
                pool.run_batch([(-1.0, 8)])  # leased, then its worker died
            # The recycle swept generation 0 and left the pooled segment;
            # the crashed batch's lease is idle again.
            assert _owned(pool) == [name]
            assert pool.segments.idle_bytes() > 0
            [res] = pool.run_batch([(3.0, 8)])
            assert _owned(pool) == [name]
            np.testing.assert_array_equal(res.blocks.data, 3.0)
        finally:
            pool.shutdown()
        assert _owned(pool) == []

    def test_shutdown_unlinks_pooled_segments(self, no_floor):
        pool = WorkerPool(workers=2, task_fn=_filled)
        try:
            [held] = pool.run_batch([(1.0, 8)])
            pool.run_batch([(2.0, 8)])
            pool.run_batch([(3.0, 32)])  # the idle one is too small
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

            handoff.MIN_SEGMENT_BYTES = 0
            spec = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)
            svc = GreensService(ServiceConfig(workers=2))
            for seed in range(3):
                field = HSField.random(spec.L, spec.N,
                                       np.random.default_rng(seed))
                svc.compute(GreensJob.from_field(
                    spec, field, c=4, pattern=Pattern.COLUMNS, q=1))
            pool = svc._pool
            print(pool.segments.prefix, pool.segment_prefix,
                  *pool._executor._processes, flush=True)
            time.sleep(300)
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE, text=True)
        workers: list[str] = []
        try:
            pooled, fresh, *workers = proc.stdout.readline().split()
            assert _segments(pooled)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 30
            while _segments(pooled) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _segments(pooled) == []
            assert _segments(fresh) == []
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
    return solve(pc, job.c, job.pattern, q=job.q, num_threads=1,
                 **kwargs).selected.data


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
    [res] = pool.run_batch([job])
    return res.blocks.data.copy()


class TestSolvedInPlace:
    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_served_in_place_equals_inline_fsi(self, no_floor, count_calls,
                                               pattern):
        copies = count_calls("_copy_in")
        ways: list[str] = []
        pool = WorkerPool(workers=1, on_handoff=lambda way, _s: ways.append(way))
        try:
            jobs = [_job(seed, pattern) for seed in range(4)]
            first = _served(pool, jobs[0])  # no idle segment yet
            assert copies.value == 1
            served = [_served(pool, job) for job in jobs[1:]]
        finally:
            pool.shutdown()
        assert ways == ["fresh", "in_place", "in_place", "in_place"]
        assert copies.value == 1  # the steady state copied nothing
        for job, blocks in zip(jobs, [first, *served]):
            np.testing.assert_array_equal(blocks, _inline(job))

    def test_too_small_lease_falls_back_to_a_fresh_segment(self, no_floor):
        ways: list[str] = []
        pool = WorkerPool(workers=2, on_handoff=lambda way, _s: ways.append(way))
        try:
            small = _job(0, Pattern.DIAGONAL)
            _served(pool, small)  # its segment goes idle: 256 bytes
            big = _job(1, Pattern.COLUMNS)
            blocks = _served(pool, big)
            assert len(_owned(pool)) == 2  # the small one is kept
        finally:
            pool.shutdown()
        assert ways == ["fresh", "fresh"]
        np.testing.assert_array_equal(blocks, _inline(big))

    def test_tripped_direct_rung_is_served_from_a_finer_rung(
        self, no_floor, monkeypatch
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
            _served(pool, _job(0))
            job = _job(1)
            [res] = pool.run_batch([job])
            assert res.rung == "c=2"
            blocks = res.blocks.data.copy()
            del res
        finally:
            pool.shutdown()
        assert took.value == 1  # the direct rung wrote into the lease
        assert ways == ["fresh", "copied"]
        np.testing.assert_array_equal(
            blocks, _inline(job, fsi_resilient, guards=GuardConfig())
        )

    def test_small_and_spectral_results_never_map_the_lease(
        self, monkeypatch, count_calls
    ):
        # A 4 KiB COLUMNS result leaves a 4 KiB idle segment; the 256-byte
        # DIAGONAL and 2 KiB spectral results fit it, under the floor.
        monkeypatch.setattr(handoff, "MIN_SEGMENT_BYTES", 4096)
        maps = count_calls("_map_lease")
        ways: list[str] = []
        pool = WorkerPool(workers=1, on_handoff=lambda way, _s: ways.append(way))
        try:
            _served(pool, _job(0, Pattern.COLUMNS, c=2))
            assert pool.segments.idle_bytes() == 4096
            small = _job(1, Pattern.DIAGONAL)
            spectral = _job(2, Pattern.DIAGONAL,
                            spectral=SpectralSpec.linear(-2.0, -1.0, 4, 0.1))
            np.testing.assert_array_equal(_served(pool, small), _inline(small))
            assert _served(pool, spectral).shape == (2, 4, 4, 4)
            assert pool.segments.idle_bytes() == 4096  # lent, returned
        finally:
            pool.shutdown()
        assert ways == ["fresh", "pickled", "pickled"]
        assert maps.value == 0


@pytest.fixture
def make_lease():
    """A segment of ``size`` bytes this process hands over like a
    worker's (untracked); unlinked after the test if still there."""
    names = []

    def make(size: int) -> handoff.Lease:
        shm = shared_memory.SharedMemory(
            name=handoff.pool_prefix() + "0-0", create=True, size=size
        )
        untrack_segment(shm.name)
        shm.close()
        names.append(shm.name)
        return handoff.Lease(shm.name, size)

    yield make
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(handoff.SHM_DIR, name))


class TestArena:
    SELECTION = Selection(Pattern.COLUMNS, L=8, c=4, q=1)

    def _solve(self, arena: handoff.Arena, value: float) -> SelectedInversion:
        with result_buffers(arena):
            out = SelectedInversion.empty(self.SELECTION, (4, 4))
        out.data[:] = value
        return out

    def test_hollow_results_do_not_pin_the_mapping(self, no_floor, make_lease):
        lease = make_lease(2048)
        arena = handoff.Arena(lease)
        out = self._solve(arena, 3.0)
        assert isinstance(out.data.base, mmap.mmap)
        parcel = handoff.export([_result("g", out)], "unused", lease, arena)
        assert parcel.way == "in_place"
        assert parcel.export_seconds >= 0.0
        mapping = weakref.ref(out.data.base)
        del arena, out
        gc.collect()
        assert mapping() is None  # the parcel keeps nothing of it
        assert parcel.results[0].blocks.data.base is None
        [back] = handoff.receive(parcel)
        np.testing.assert_array_equal(back.blocks.data, 3.0)

    def test_only_the_first_allocation_is_offered(self, monkeypatch,
                                                  make_lease):
        # The 256-byte first result is under the floor; the 2 KiB one
        # after it would take the lease, but is never offered it.
        monkeypatch.setattr(handoff, "MIN_SEGMENT_BYTES", 1024)
        arena = handoff.Arena(make_lease(4096))
        with result_buffers(arena):
            small = SelectedInversion.empty(
                Selection(Pattern.DIAGONAL, L=8, c=4, q=1), (4, 4)
            )
            big = SelectedInversion.empty(self.SELECTION, (4, 4))
        assert small.data.base is None and big.data.base is None

    def test_out_of_place_buffer_in_the_lease_is_copied_out_first(
        self, no_floor, make_lease
    ):
        lease = make_lease(4096)
        arena = handoff.Arena(lease)
        second = self._solve(arena, 2.0)  # at offset 0, planned at 2048
        first = _result("h", {(1, 1): np.full((16, 16), 1.0)})
        parcel = handoff.export(
            [first, _result("i", second)], "unused", lease, arena
        )
        assert parcel.way == "copied"
        assert parcel.offsets == [0, 2048]
        del arena, second
        a, b = handoff.receive(parcel)
        np.testing.assert_array_equal(a.blocks.data, 1.0)
        np.testing.assert_array_equal(b.blocks.data, 2.0)


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
