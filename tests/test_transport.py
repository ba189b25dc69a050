"""Transport conformance suite — one contract, two backends.

Every test in :class:`TestConformance` runs identically over
``threads`` and ``mp-shm``: the backends must agree on
values, on :class:`CommStats` tallies (collectives are implemented once
on the backend primitives, so fan-in/fan-out message counts are
identical by construction), and on failure semantics (typed timeouts,
abort propagation, merged partial stats).  The chaos-marker test at the
bottom SIGKILLs a rank mid-exchange through the ``mp-shm`` backend —
the process-transport equivalent of the ``worker.task`` crash site.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.resilience.chaos import FaultKind, FaultPlan, FaultRule
from repro.telemetry import runtime as telemetry
from repro.transport import (
    ANY_SOURCE,
    ANY_TAG,
    BACKENDS,
    CommStats,
    RankError,
    SimMPI,
    TransportTimeoutError,
    create_world,
)
from repro.transport.base import _payload_bytes
from repro.transport.mpshm import SHM_MIN_BYTES, MpShmTransport

SRC = Path(__file__).resolve().parents[1] / "src"

# Generous world timeouts: process backends fork + handshake, and CI
# machines can be slow; a healthy run finishes in well under a second.
RUN_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture(params=list(BACKENDS))
def backend(request) -> str:
    return request.param


def world(backend: str, size: int):
    return create_world(size, backend=backend)


class TestRegistry:
    def test_available_backends(self):
        assert BACKENDS == {"threads": SimMPI, "mp-shm": MpShmTransport}

    def test_lookup_by_name(self):
        assert isinstance(create_world(2, backend="threads"), SimMPI)
        assert isinstance(create_world(2, backend="mp-shm"), MpShmTransport)

    def test_unknown_backend_raises(self):
        with pytest.raises(
            ValueError, match="unknown transport.*available: threads, mp-shm"
        ):
            create_world(2, backend="carrier-pigeon")

    def test_env_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "mp-shm")
        assert isinstance(create_world(2), MpShmTransport)
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert isinstance(create_world(2), SimMPI)

    def test_world_size_validated(self, backend):
        with pytest.raises(ValueError, match="world size"):
            world(backend, 0)


class TestConformance:
    def test_identity(self, backend):
        out = world(backend, 3).run(
            lambda c: (c.rank, c.size, c.Get_rank(), c.Get_size()),
            timeout=RUN_TIMEOUT,
        )
        assert out == [(r, 3, r, 3) for r in range(3)]

    def test_send_recv_ring(self, backend):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send({"from": comm.rank, "x": np.arange(4.0)}, dest=right, tag=5)
            msg = comm.recv(source=left, tag=5, timeout=30.0)
            assert np.allclose(msg["x"], np.arange(4.0))
            return msg["from"]

        out = world(backend, 3).run(main, timeout=RUN_TIMEOUT)
        assert out == [2, 0, 1]

    def test_numpy_send_decouples_from_sender(self, backend):
        def main(comm):
            if comm.rank == 0:
                a = np.ones(8)
                comm.send(a, dest=1, tag=1)
                a[:] = -1.0  # mutate after send: receiver must not see it
                return None
            got = comm.recv(source=0, tag=1, timeout=30.0)
            return float(got.sum())

        assert world(backend, 2).run(main, timeout=RUN_TIMEOUT)[1] == 8.0

    def test_Send_Recv_buffer(self, backend):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(12.0).reshape(3, 4), dest=1, tag=2)
                return None
            buf = np.empty((3, 4))
            comm.Recv(buf, source=0, tag=2, timeout=30.0)
            return buf.tolist()

        out = world(backend, 2).run(main, timeout=RUN_TIMEOUT)
        assert out[1] == np.arange(12.0).reshape(3, 4).tolist()

    def test_Send_strided_view_tallies_contiguous_bytes(self, backend):
        """A strided view must move (and tally) its materialized size."""
        base = np.arange(64.0).reshape(8, 8)
        view = base[:, ::2]  # non-contiguous, 32 elements

        def main(comm):
            if comm.rank == 0:
                comm.Send(view, dest=1, tag=3)
                return None
            buf = np.empty((8, 4))
            comm.Recv(buf, source=0, tag=3, timeout=30.0)
            return buf.tolist()

        w = world(backend, 2)
        out = w.run(main, timeout=RUN_TIMEOUT)
        assert out[1] == base[:, ::2].tolist()
        assert w.stats.bytes["Send"] == np.ascontiguousarray(view).nbytes

    def test_barrier(self, backend):
        def main(comm):
            for _ in range(3):
                comm.barrier()
            return comm.rank

        w = world(backend, 3)
        assert w.run(main, timeout=RUN_TIMEOUT) == [0, 1, 2]
        assert w.stats.messages["barrier"] == 9  # 3 calls x 3 ranks

    def test_bcast_gather_allreduce(self, backend):
        def main(comm):
            word = comm.bcast("hello" if comm.rank == 0 else None, root=0)
            everyone = comm.gather(comm.rank * 10, root=0)
            total = comm.allreduce(1)
            return word, everyone, total

        w = world(backend, 3)
        out = w.run(main, timeout=RUN_TIMEOUT)
        assert [o[0] for o in out] == ["hello"] * 3
        assert out[0][1] == [0, 10, 20]
        assert out[1][1] is None and out[2][1] is None
        assert [o[2] for o in out] == [3, 3, 3]
        # Tally contract shared with the threads baseline: one gather
        # record per rank per gather (the allreduce gathers once more).
        assert w.stats.messages["bcast"] == 2  # explicit + allreduce's
        assert w.stats.messages["gather"] == 6

    def test_scatter_reduce(self, backend):
        def main(comm):
            parts = [float(i) for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(parts, root=0)
            return comm.reduce(mine, root=0)

        out = world(backend, 4).run(main, timeout=RUN_TIMEOUT)
        assert out[0] == 6.0
        assert out[1:] == [None, None, None]

    def test_buffer_scatter_and_reduce(self, backend):
        def main(comm):
            send = (
                np.arange(comm.size * 4.0).reshape(comm.size, 4)
                if comm.rank == 0
                else None
            )
            recv = np.empty(4)
            comm.Scatter(send, recv, root=0)
            total = np.empty(4)
            comm.Reduce(recv, total if comm.rank == 0 else None, root=0)
            return total.tolist() if comm.rank == 0 else recv.tolist()

        out = world(backend, 3).run(main, timeout=RUN_TIMEOUT)
        assert out[1] == [4.0, 5.0, 6.0, 7.0]
        assert out[0] == [12.0, 15.0, 18.0, 21.0]  # column sums

    def test_any_source_any_tag(self, backend):
        def main(comm):
            if comm.rank == 0:
                seen = set()
                for _ in range(2):
                    msg = comm.recv(source=ANY_SOURCE, tag=ANY_TAG, timeout=30.0)
                    seen.add(msg)
                return sorted(seen)
            comm.send(f"from-{comm.rank}", dest=0, tag=comm.rank * 7)
            return None

        out = world(backend, 3).run(main, timeout=RUN_TIMEOUT)
        assert out[0] == ["from-1", "from-2"]

    def test_recv_timeout_is_typed(self, backend):
        def main(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1, tag=42, timeout=0.05)
                except TransportTimeoutError:
                    return "typed"
                return "untyped"
            return None

        assert world(backend, 2).run(main, timeout=RUN_TIMEOUT)[0] == "typed"

    def test_recv_timeout_is_one_deadline(self, backend):
        """Non-matching messages arriving during a ``recv`` must not
        restart its timeout: the receive times out after ``timeout``
        seconds however chatty the sender is."""

        def main(comm):
            if comm.rank == 0:
                # A tag-99 message every 0.1 s for up to 4 s, until rank
                # 1 reports back (the recv doubles as the sleep).
                for _ in range(40):
                    comm.send("noise", dest=1, tag=99)
                    try:
                        return comm.recv(source=1, tag=1, timeout=0.1)
                    except TransportTimeoutError:
                        pass
                return None
            t0 = time.monotonic()
            try:
                comm.recv(source=0, tag=7, timeout=0.5)
            except TransportTimeoutError:
                pass
            elapsed = time.monotonic() - t0
            comm.send("done", dest=0, tag=1)
            return elapsed

        out = world(backend, 2).run(main, timeout=RUN_TIMEOUT)
        assert out[0] == "done"
        assert 0.5 <= out[1] < 2.5

    def test_collectives_validate_root(self, backend):
        """An out-of-range root raises on every rank instead of leaving
        the ranks blocked on a message from a rank that does not exist."""
        calls = {
            "bcast": lambda c: c.bcast(1, root=5),
            "scatter": lambda c: c.scatter([1, 2], root=5),
            "gather": lambda c: c.gather(1, root=5),
            "Scatter": lambda c: c.Scatter(np.zeros((2, 3)), np.empty(3), root=5),
        }
        for name, call in calls.items():
            with pytest.raises(RankError, match="rank 5 out of range") as ei:
                world(backend, 2).run(call, timeout=10.0)
            assert isinstance(ei.value.original, ValueError), name

    def test_run_timeout_lets_the_process_exit(self, backend):
        """A ``run`` that times out must not leave ranks blocked in a
        receive: the launching process still exits."""
        script = textwrap.dedent(f"""
            from repro.transport import TransportTimeoutError, create_world

            def main(comm):
                if comm.rank == 1:
                    comm.recv(source=0, tag=7)

            try:
                create_world(2, backend={backend!r}).run(main, timeout=0.5)
            except TransportTimeoutError:
                print("timed out")
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "timed out"

    def test_abort_propagation(self, backend):
        """A raising rank unblocks peers waiting on it; merged partial
        stats from *all* ranks ride on the RankError."""

        def main(comm):
            comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=1)
            comm.recv(tag=1, timeout=30.0)
            if comm.rank == 1:
                raise ValueError("kapow")
            comm.recv(source=1, tag=99, timeout=30.0)  # never arrives

        w = world(backend, 3)
        with pytest.raises(RankError, match=r"rank 1 .*kapow.*partial comm") as ei:
            w.run(main, timeout=RUN_TIMEOUT)
        assert ei.value.rank == 1
        assert isinstance(ei.value.original, ValueError)
        # Every rank's warmup send survived into the merged tallies.
        assert ei.value.stats is not None
        assert ei.value.stats.messages["send"] == 3

    def test_ranks_share_one_trace(self, backend):
        telemetry.configure()

        def main(comm):
            comm.barrier()
            with telemetry.span("rank.work", rank=comm.rank):
                pass
            return comm.rank

        with telemetry.span("driver") as driver:
            world(backend, 3).run(main, timeout=RUN_TIMEOUT)
        records = telemetry.collector().snapshot()
        work = [r for r in records if r["name"] == "rank.work"]
        assert len(work) == 3
        assert {r["trace_id"] for r in work} == {driver.context.trace_id}


class TestPayloadBytes:
    def test_strided_view_matches_contiguous_copy(self):
        a = np.arange(100.0).reshape(10, 10)
        view = a[::2, 1::3]
        assert _payload_bytes(view) == np.ascontiguousarray(view).nbytes

    def test_transposed_view(self):
        a = np.arange(12.0).reshape(3, 4)
        assert _payload_bytes(a.T) == a.nbytes

    def test_broadcast_view_counts_materialized_extent(self):
        row = np.zeros(4)
        fat = np.broadcast_to(row, (8, 4))
        assert _payload_bytes(fat) == 8 * 4 * 8

    def test_object_dtype_recurses(self):
        arr = np.empty(2, dtype=object)
        arr[0] = np.zeros(10)
        arr[1] = b"xyz"
        assert _payload_bytes(arr) == 80 + 3

    def test_containers_and_scalars(self):
        assert _payload_bytes([np.zeros(2), b"ab"]) == 18
        assert _payload_bytes({"k": memoryview(b"abcd")}) == 4
        assert _payload_bytes(123) == 64


class TestExceptionPickling:
    """Typed errors must survive the result pipe of process backends —
    a degraded ``RuntimeError("RankError: ...")`` loses the rank, the
    original exception, and the partial stats callers key off."""

    def test_rank_error_round_trips(self):
        stats = CommStats()
        stats.record("send", 128)
        err = RankError(2, ValueError("kapow"), stats=stats)
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, RankError)
        assert back.rank == 2
        assert isinstance(back.original, ValueError)
        assert back.stats.messages == {"send": 1}
        assert back.stats.bytes == {"send": 128}
        # The regrown lock is live, not a pickled husk.
        back.stats.record("send", 64)
        assert back.stats.messages["send"] == 2

    def test_fleet_matrix_error_round_trips(self):
        from repro.parallel.hybrid import FleetMatrixError

        err = FleetMatrixError(5, ValueError("bad pivot"))
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, FleetMatrixError)
        assert back.matrix_index == 5
        assert isinstance(back.original, ValueError)

    def test_nested_rank_error_round_trips(self):
        # A fleet failing inside a process worker ships RankError(
        # FleetMatrixError(original)) through two pickle layers.
        from repro.parallel.hybrid import FleetMatrixError

        inner = FleetMatrixError(3, ValueError("inner"))
        back = pickle.loads(pickle.dumps(RankError(1, inner)))
        assert isinstance(back.original, FleetMatrixError)
        assert back.original.matrix_index == 3


class TestProcessBackends:
    """Behaviour specific to the out-of-process transport."""

    @pytest.mark.parametrize("backend", ["mp-shm"])
    def test_large_buffer_roundtrip(self, backend):
        """Above SHM_MIN_BYTES the mp-shm path goes through shared
        memory; it must deliver bit-identical payloads and leak no
        segments."""
        shape = (200, 200)  # 320 kB > SHM_MIN_BYTES
        assert np.prod(shape) * 8 > SHM_MIN_BYTES
        before = {n for n in os.listdir("/dev/shm")} if os.path.isdir("/dev/shm") else set()

        def main(comm):
            rng = np.random.default_rng(7)
            data = rng.standard_normal(shape)
            if comm.rank == 0:
                comm.Send(data, dest=1, tag=11)
                return None
            buf = np.empty(shape)
            comm.Recv(buf, source=0, tag=11, timeout=60.0)
            return float(np.abs(buf - data).max())

        out = world(backend, 2).run(main, timeout=RUN_TIMEOUT)
        assert out[1] == 0.0
        if os.path.isdir("/dev/shm"):
            leaked = {
                n for n in os.listdir("/dev/shm") if n.startswith("psm_")
            } - before
            assert not leaked

    @pytest.mark.parametrize("backend", ["mp-shm"])
    def test_rank_spans_ship_back_across_processes(self, backend):
        telemetry.configure()

        def main(comm):
            with telemetry.span("child.step", rank=comm.rank):
                pass
            return comm.rank

        with telemetry.span("driver") as driver:
            world(backend, 2).run(main, timeout=RUN_TIMEOUT)
        records = telemetry.collector().snapshot()
        ranks = [r for r in records if r["name"] == "transport.rank"]
        steps = [r for r in records if r["name"] == "child.step"]
        assert len(ranks) == 2 and len(steps) == 2
        trace_ids = {r["trace_id"] for r in ranks + steps}
        assert trace_ids == {driver.context.trace_id}


@pytest.mark.chaos
class TestChaosRankCrash:
    def test_fault_plan_crash_at_worker_task_through_mpshm(self, tmp_path):
        """A FaultPlan CRASH at the ``worker.task`` site fires inside an
        mp-shm rank process: SIGKILL mid-exchange.  The world must
        surface a RankError naming the dead rank, unblock the survivors
        quickly, and merge the survivors' partial CommStats."""
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule(site="worker.task", kind=FaultKind.CRASH,
                          probability=0.5),
            ),
            state_dir=str(tmp_path / "chaos"),
        )
        size = 4
        doomed = sorted(
            r for r in range(size)
            if plan.decide("worker.task", f"rank-{r}") is not None
        )
        assert doomed and len(doomed) < size  # crash some, not all

        def main(comm):
            comm.send(np.ones(16), dest=(comm.rank + 1) % comm.size, tag=1)
            comm.recv(tag=1, timeout=30.0)
            rule = plan.decide("worker.task", f"rank-{comm.rank}")
            if rule is not None and rule.kind is FaultKind.CRASH:
                os.kill(os.getpid(), 9)
            comm.barrier()  # survivors block on the dead rank
            return comm.rank

        w = world("mp-shm", size)
        with pytest.raises(RankError, match="died with exit code -9") as ei:
            w.run(main, timeout=RUN_TIMEOUT)
        assert ei.value.rank in doomed
        # Survivors shipped their partial tallies before exiting: every
        # rank completed the warmup send, only survivors could report.
        assert ei.value.stats is not None
        assert ei.value.stats.messages["send"] >= size - len(doomed)
