"""SimMPI: point-to-point, collectives, errors, accounting."""

import numpy as np
import pytest

from repro.transport import (
    ANY_SOURCE,
    ANY_TAG,
    RankError,
    SimMPI,
)


class TestWorld:
    def test_single_rank(self):
        assert SimMPI(1).run(lambda c: c.rank) == [0]

    def test_sizes_and_ranks(self):
        out = SimMPI(4).run(lambda c: (c.Get_rank(), c.Get_size()))
        assert out == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_rank_exception_wrapped(self):
        def main(comm):
            if comm.rank == 2:
                raise ValueError("bad rank")

        with pytest.raises(RankError, match="rank 2"):
            SimMPI(3).run(main)

    def test_rank_error_keeps_original(self):
        def main(comm):
            if comm.rank == 1:
                raise KeyError("x")

        with pytest.raises(RankError) as exc_info:
            SimMPI(2).run(main)
        assert isinstance(exc_info.value.original, KeyError)


class TestPointToPoint:
    def test_object_roundtrip(self):
        def main(comm):
            if comm.rank == 0:
                comm.send({"a": 7, "b": [1, 2]}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        out = SimMPI(2).run(main)
        assert out[1] == {"a": 7, "b": [1, 2]}

    def test_numpy_send_copies(self):
        def main(comm):
            if comm.rank == 0:
                arr = np.arange(4.0)
                comm.send(arr, dest=1)
                arr[:] = -1  # mutation must not reach the receiver
                return None
            got = comm.recv(source=0)
            return got.tolist()

        assert SimMPI(2).run(main)[1] == [0.0, 1.0, 2.0, 3.0]

    def test_buffer_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.arange(10, dtype=np.float64), dest=1, tag=5)
                return None
            buf = np.empty(10)
            comm.Recv(buf, source=0, tag=5)
            return buf.sum()

        assert SimMPI(2).run(main)[1] == 45.0

    def test_recv_buffer_size_mismatch(self):
        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(4), dest=1)
                return None
            buf = np.empty(5)
            comm.Recv(buf, source=0)

        with pytest.raises(RankError, match="rank 1"):
            SimMPI(2).run(main)

    def test_tag_matching(self):
        """A receive for tag 2 skips an earlier tag-1 message."""

        def main(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            got2 = comm.recv(source=0, tag=2)
            got1 = comm.recv(source=0, tag=1)
            return (got1, got2)

        assert SimMPI(2).run(main)[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def main(comm):
            if comm.rank != 0:
                comm.send(comm.rank, dest=0, tag=comm.rank)
                return None
            got = sorted(comm.recv(ANY_SOURCE, ANY_TAG) for _ in range(2))
            return got

        assert SimMPI(3).run(main)[0] == [1, 2]

    def test_send_to_invalid_rank(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, dest=5)

        with pytest.raises(RankError):
            SimMPI(2).run(main)

    def test_recv_timeout(self):
        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0, timeout=0.05)

        with pytest.raises(RankError) as exc_info:
            SimMPI(2).run(main)
        assert isinstance(exc_info.value.original, TimeoutError)


class TestCollectives:
    def test_barrier_completes(self):
        def main(comm):
            comm.barrier()
            return comm.rank

        assert SimMPI(5).run(main) == [0, 1, 2, 3, 4]

    def test_bcast(self):
        def main(comm):
            data = {"k": [1, 2]} if comm.rank == 0 else None
            return comm.bcast(data)

        out = SimMPI(3).run(main)
        assert all(o == {"k": [1, 2]} for o in out)

    def test_bcast_nonzero_root(self):
        def main(comm):
            data = "hello" if comm.rank == 2 else None
            return comm.bcast(data, root=2)

        assert SimMPI(3).run(main) == ["hello"] * 3

    def test_scatter(self):
        def main(comm):
            data = [i * 10 for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(data)

        assert SimMPI(4).run(main) == [0, 10, 20, 30]

    def test_scatter_wrong_length(self):
        def main(comm):
            data = [1, 2] if comm.rank == 0 else None
            comm.scatter(data)

        with pytest.raises(RankError, match="rank 0"):
            SimMPI(3).run(main)

    def test_gather(self):
        def main(comm):
            return comm.gather(comm.rank**2)

        out = SimMPI(4).run(main)
        assert out[0] == [0, 1, 4, 9]
        assert out[1] is None

    def test_allgather(self):
        out = SimMPI(3).run(lambda c: c.allgather(c.rank + 1))
        assert out == [[1, 2, 3]] * 3

    def test_reduce_sum_scalars(self):
        out = SimMPI(4).run(lambda c: c.reduce(c.rank))
        assert out[0] == 6 and out[1] is None

    def test_reduce_arrays(self):
        def main(comm):
            tot = comm.reduce(np.full(3, float(comm.rank)))
            return None if tot is None else tot.tolist()

        assert SimMPI(3).run(main)[0] == [3.0, 3.0, 3.0]

    def test_reduce_dicts_recursive(self):
        def main(comm):
            return comm.reduce({"a": 1.0, "b": np.ones(2)})

        out = SimMPI(3).run(main)[0]
        assert out["a"] == 3.0
        np.testing.assert_array_equal(out["b"], 3.0 * np.ones(2))

    def test_reduce_custom_op(self):
        out = SimMPI(4).run(lambda c: c.reduce(c.rank, op=max))
        assert out[0] == 3

    def test_allreduce(self):
        assert SimMPI(4).run(lambda c: c.allreduce(1)) == [4, 4, 4, 4]

    def test_buffer_scatter(self):
        def main(comm):
            send = (
                np.arange(comm.size * 3, dtype=np.float64).reshape(comm.size, 3)
                if comm.rank == 0
                else None
            )
            recv = np.empty(3)
            comm.Scatter(send, recv)
            return recv.tolist()

        out = SimMPI(3).run(main)
        assert out == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_buffer_reduce(self):
        def main(comm):
            recv = np.empty(2) if comm.rank == 0 else None
            comm.Reduce(np.full(2, float(comm.rank + 1)), recv)
            return None if recv is None else recv.tolist()

        assert SimMPI(3).run(main)[0] == [6.0, 6.0]

    def test_successive_collectives_do_not_cross(self):
        """Regression: generation tags keep back-to-back reduces separate
        even when a fast rank races ahead."""

        def main(comm):
            a = comm.reduce({"x": float(comm.rank)})
            b = comm.reduce(float(comm.rank * 10), op=max)
            comm.barrier()
            c = comm.allreduce(1)
            return (a, b, c)

        out = SimMPI(6).run(main)
        assert out[0][0] == {"x": 15.0}
        assert out[0][1] == 50.0
        assert all(o[2] == 6 for o in out)


class TestStats:
    def test_rank_error_carries_partial_comm_stats(self):
        """A failed run reports the communication done up to the crash,
        so operators can see how far the fleet got."""
        world = SimMPI(3)

        def main(comm):
            comm.bcast("payload" if comm.rank == 0 else None)
            if comm.rank == 2:
                raise ValueError("mid-run failure")

        with pytest.raises(RankError, match="partial comm") as exc_info:
            world.run(main)
        err = exc_info.value
        assert err.stats is not None
        assert err.stats.total_messages > 0
        assert err.stats.messages["bcast"] == 1

    def test_message_accounting(self):
        world = SimMPI(3)

        def main(comm):
            comm.bcast("x" if comm.rank == 0 else None)
            comm.gather(comm.rank)

        world.run(main)
        assert world.stats.messages["bcast"] == 1
        assert world.stats.messages["gather"] == 3
        assert world.stats.total_messages > 0

    def test_byte_accounting_buffer(self):
        world = SimMPI(2)

        def main(comm):
            if comm.rank == 0:
                comm.Send(np.zeros(100), dest=1)
            else:
                buf = np.empty(100)
                comm.Recv(buf, source=0)

        world.run(main)
        assert world.stats.bytes["Send"] == 800
