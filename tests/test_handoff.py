"""Result handoff through shared memory, and the flat result screen.

* :func:`repro.service.handoff.export` / :func:`receive` round-trip a
  batch's block buffers through one segment, which is gone from
  ``/dev/shm`` as soon as the service process has mapped it;
* a worker that fails after creating its segment unlinks it, and one
  that is killed leaves a segment the pool sweeps on recycle and
  shutdown;
* the scheduler's store-side screen still names a single poisoned
  block of a flat result.
"""

from __future__ import annotations

import mmap
import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.patterns import BlockArray, Pattern, Selection
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


def _create_segment_then_die(jobs, fleet_ranks=1, threads_per_rank=1):
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
        with GreensService(ServiceConfig(workers=1, fleet_ranks=1)) as svc:
            prefix = svc._pool.segment_prefix
            result = svc.compute(job, timeout=60)
            assert isinstance(result.blocks.data.base, mmap.mmap)
            assert _segments(prefix) == []
        assert _segments(prefix) == []


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
