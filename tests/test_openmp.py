"""The OpenMP-style threading layer."""

import threading

import numpy as np
import pytest

from repro.parallel.openmp import chunk_ranges, parallel_for
from repro.telemetry import FlopTracer, record_flops


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(8, 4) == [range(0, 2), range(2, 4), range(4, 6), range(6, 8)]

    def test_uneven_split_bigger_first(self):
        chunks = chunk_ranges(7, 3)
        assert [len(c) for c in chunks] == [3, 2, 2]

    def test_more_parts_than_items(self):
        chunks = chunk_ranges(2, 5)
        assert [len(c) for c in chunks] == [1, 1]

    def test_covers_everything_once(self):
        for n, parts in [(10, 3), (1, 1), (13, 5), (100, 7)]:
            seen = [i for c in chunk_ranges(n, parts) for i in c]
            assert seen == list(range(n))

    def test_zero_items(self):
        assert chunk_ranges(0, 3) == []

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestParallelFor:
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_every_index_once(self, threads):
        hits = np.zeros(37, dtype=np.int64)
        lock = threading.Lock()

        def body(i):
            with lock:
                hits[i] += 1

        parallel_for(body, 37, num_threads=threads)
        assert np.all(hits == 1)

    def test_zero_iterations(self):
        parallel_for(lambda i: 1 / 0, 0, num_threads=2)  # body never runs

    def test_exception_propagates(self):
        def body(i):
            if i == 3:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            parallel_for(body, 8, num_threads=2)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            parallel_for(lambda i: None, 4, num_threads=0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            parallel_for(lambda i: None, -1)

    def test_tracer_flows_into_workers(self):
        """Flops recorded inside parallel bodies reach the outer tracer."""
        with FlopTracer() as tr:
            parallel_for(lambda i: record_flops(10.0), 12, num_threads=3)
        assert tr.total_flops == 120.0

    def test_results_independent_of_thread_count(self):
        out1 = np.zeros(20)
        out4 = np.zeros(20)
        parallel_for(lambda i: out1.__setitem__(i, i * i), 20, num_threads=1)
        parallel_for(lambda i: out4.__setitem__(i, i * i), 20, num_threads=4)
        np.testing.assert_array_equal(out1, out4)


class TestThreadLocalReduce:
    def test_sums_match_serial(self):
        from repro.parallel.openmp import thread_local_reduce

        def body(i, acc):
            acc.append(i * i)

        for nt in (1, 4):
            out = thread_local_reduce(
                body, 50, list, lambda a, b: a + b, num_threads=nt
            )
            assert sorted(out) == [i * i for i in range(50)]

    def test_empty_returns_none(self):
        from repro.parallel.openmp import thread_local_reduce

        assert thread_local_reduce(
            lambda i, a: None, 0, list, lambda a, b: a + b
        ) is None

    def test_array_accumulators(self):
        import numpy as np

        from repro.parallel.openmp import thread_local_reduce

        out = thread_local_reduce(
            lambda i, a: a.__iadd__(i),
            10,
            lambda: np.zeros(1),
            lambda a, b: a + b,
            num_threads=3,
        )
        assert float(out[0]) == 45.0
