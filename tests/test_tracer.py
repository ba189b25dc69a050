"""Flop tracer: a reader of stage frames, nesting, thread teams."""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core import _kernels as kr
from repro.parallel.openmp import parallel_for
from repro.telemetry import FlopTracer, current_tracers, record_flops


class TestBasicAccounting:
    def test_records_into_default_stage(self):
        with FlopTracer() as tr:
            record_flops(100.0, 8.0)
        assert tr.total_flops == 100.0
        assert tr.flops("default") == 100.0
        assert tr.mem_bytes() == 8.0

    def test_stage_attribution(self):
        with FlopTracer() as tr:
            with telemetry.stage("a"):
                record_flops(10.0)
            with telemetry.stage("b"):
                record_flops(20.0)
        assert tr.flops("a") == 10.0
        assert tr.flops("b") == 20.0
        assert tr.total_flops == 30.0

    def test_innermost_stage_wins(self):
        with FlopTracer() as tr:
            with telemetry.stage("outer"):
                with telemetry.stage("inner"):
                    record_flops(5.0)
        assert tr.flops("inner") == 5.0
        assert tr.flops("outer") == 0.0
        assert tr.elapsed("outer") >= tr.elapsed("inner") > 0

    def test_unknown_stage_is_zero(self):
        tr = FlopTracer()
        assert tr.flops("nope") == 0.0
        assert tr.calls("nope") == 0

    def test_elapsed_positive(self):
        with FlopTracer() as tr:
            with telemetry.stage("work"):
                np.ones(10000).sum()
        assert tr.elapsed("work") > 0

    def test_summary_structure(self):
        with FlopTracer() as tr:
            with telemetry.stage("x"):
                record_flops(1.0, 2.0)
        s = tr.summary()
        assert s["x"]["flops"] == 1.0
        assert s["x"]["mem_bytes"] == 2.0
        assert s["x"]["calls"] == 1.0


class TestNesting:
    def test_no_tracer_is_noop(self):
        record_flops(1e9)  # must not raise
        assert current_tracers() == ()

    def test_nested_tracers_both_record(self):
        with FlopTracer() as outer:
            with FlopTracer() as inner:
                record_flops(7.0)
        assert outer.total_flops == 7.0
        assert inner.total_flops == 7.0

    def test_stack_restored_after_exit(self):
        with FlopTracer():
            assert len(current_tracers()) == 1
        assert current_tracers() == ()


def _run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestThreadAttachment:
    """Team threads see the forking thread's tracers only through
    ``telemetry.capture_thread``."""

    def test_worker_thread_invisible_without_attach(self):
        with FlopTracer() as tr:
            _run_threads(lambda: record_flops(50.0))
        assert tr.total_flops == 0.0

    def test_attach_thread_records(self):
        with FlopTracer() as tr:
            adopt = telemetry.capture_thread()

            def work():
                with adopt():
                    record_flops(50.0)

            _run_threads(work)
        assert tr.flops("default") == 50.0

    def test_concurrent_attach_is_safe(self):
        with FlopTracer() as tr:
            adopt = telemetry.capture_thread()

            def work():
                with adopt():
                    for _ in range(100):
                        record_flops(1.0)

            _run_threads(*[work] * 4)
        assert tr.total_flops == 400.0

    def test_team_threads_fold_every_count_into_the_stage(self):
        """Each team thread counts into its own frame and folds it into
        the forking stage once: no update is lost."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FlopTracer() as tr, telemetry.stage("team"):
                parallel_for(
                    lambda i: [record_flops(1.0) for _ in range(10_000)],
                    8, num_threads=8,
                )
        finally:
            sys.setswitchinterval(interval)
        assert tr.flops("team") == 80_000.0
        assert tr.calls("team") == 80_000


class TestThreadLocalStages:
    """Stage frames are per-thread: concurrent stages on adopted team
    threads must not clobber each other's attribution."""

    def test_concurrent_stages_attribute_correctly(self):
        barrier = threading.Barrier(4)
        with FlopTracer() as tr:
            adopt = telemetry.capture_thread()

            def work(name, amount):
                with adopt(), telemetry.stage(name):
                    barrier.wait()  # all threads inside their stage
                    for _ in range(100):
                        record_flops(amount)

            _run_threads(
                *[lambda i=i: work(f"s{i}", float(i + 1)) for i in range(4)]
            )
        for i in range(4):
            assert tr.flops(f"s{i}") == 100.0 * (i + 1)
        assert tr.total_flops == 100.0 * (1 + 2 + 3 + 4)

    def test_attach_thread_inherits_stage_label(self):
        """parallel_for-style fan-out: team threads count into the
        stage that forked them."""
        with FlopTracer() as tr:
            with telemetry.stage("wrp"):
                adopt = telemetry.capture_thread()

                def work():
                    with adopt():
                        record_flops(30.0)

                _run_threads(work)
        assert tr.flops("wrp") == 30.0

    def test_stage_restored_per_thread(self):
        with FlopTracer() as tr:
            with telemetry.stage("outer"):
                with telemetry.stage("inner"):
                    pass
                record_flops(1.0)
            record_flops(2.0)
        assert tr.flops("inner") == 0.0
        assert tr.flops("outer") == 1.0
        assert tr.flops("default") == 2.0

    def test_main_thread_stage_unaffected_by_worker(self):
        with FlopTracer() as tr:
            with telemetry.stage("main"):
                adopt = telemetry.capture_thread()

                def work():
                    with adopt(), telemetry.stage("worker"):
                        record_flops(1.0)

                _run_threads(work)
                record_flops(2.0)
        assert tr.flops("worker") == 1.0
        assert tr.flops("main") == 2.0

    def test_stage_in_a_team_thread_reaches_the_forking_tracer(self):
        """Stages opened on team threads land in the tracer of the
        thread that forked the team."""
        with FlopTracer() as tr:
            def shift(i):
                with telemetry.stage("shift"):
                    record_flops(float(i + 1))

            parallel_for(shift, 6, num_threads=3)
        assert tr.flops("shift") == 21.0 and tr.calls("shift") == 6
        assert tr.elapsed("shift") > 0


class TestKernelIntegration:
    def test_gemm_count(self, rng):
        A = rng.standard_normal((3, 4))
        B = rng.standard_normal((4, 5))
        with FlopTracer() as tr:
            kr.gemm(A, B)
        assert tr.total_flops == 2 * 3 * 4 * 5

    def test_batched_gemm_count(self, rng):
        A = rng.standard_normal((6, 3, 4))
        B = rng.standard_normal((4, 5))
        with FlopTracer() as tr:
            kr.batched_gemm(A, B)
        assert tr.total_flops == 6 * 2 * 3 * 4 * 5

    def test_lu_factor_and_solve_counts(self, rng):
        A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        B = rng.standard_normal((8, 3))
        with FlopTracer() as tr:
            f = kr.lu_factor(A)
            f.solve(B)
        assert tr.total_flops == pytest.approx(2 / 3 * 8**3 + 2 * 3 * 8**2)

    def test_solve_right_correct_and_counted(self, rng):
        A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        B = rng.standard_normal((3, 5))
        with FlopTracer() as tr:
            X = kr.solve_right(B, A)
        np.testing.assert_allclose(X @ A, B, atol=1e-10)
        assert tr.total_flops > 0

    def test_qr_full_counted(self, rng):
        A = rng.standard_normal((8, 4))
        with FlopTracer() as tr:
            Q, R = kr.qr_full(A)
        np.testing.assert_allclose(Q @ R, A, atol=1e-12)
        assert tr.total_flops > 0

    def test_triangular_inverse(self, rng):
        R = np.triu(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        with FlopTracer() as tr:
            Rinv = kr.triangular_inverse(R)
        np.testing.assert_allclose(R @ Rinv, np.eye(6), atol=1e-10)
        assert tr.total_flops == pytest.approx(6**3 / 3)

    def test_gemm_into_no_allocation_semantics(self, rng):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        out = np.empty((4, 4))
        res = kr.gemm_into(out, A, B)
        assert res is out
        np.testing.assert_allclose(out, A @ B)

    def test_add_identity(self):
        A = np.zeros((3, 3))
        kr.add_identity(A, 2.5)
        np.testing.assert_array_equal(A, 2.5 * np.eye(3))
