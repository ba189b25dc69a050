"""The per-process parallelism budget (repro.parallel.budget)."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
import types

import pytest

from repro.parallel import openmp
from repro.parallel.budget import (
    BLAS_VARS,
    ParallelBudget,
    blas_threads,
    process_budget,
)
from repro.service import GreensService, ServiceConfig, WorkerPool

CORES = len(os.sched_getaffinity(0))


@pytest.fixture
def restore_budget():
    """Re-apply the process's budget after a test that changes it."""
    before = process_budget()
    yield
    before.apply()


def _report_blas(job, **kwargs):
    """Pool task: the worker's BLAS thread counts (module level, so the
    fork-based pool can run it)."""
    return blas_threads()


#: What the pool runs ``_report_blas`` on: nothing to lease a segment for.
_NO_RESULT = types.SimpleNamespace(result_nbytes=0)


class TestResolve:
    def test_no_blas_variable_means_one_blas_thread(self):
        b = ParallelBudget.resolve(environ={})
        assert (b.cores, b.blas, b.source) == (CORES, 1, "budget")
        assert b.team == CORES

    def test_explicit_blas_variable_overrides(self):
        for var in BLAS_VARS:
            b = ParallelBudget.resolve(environ={var: "3"})
            assert (b.blas, b.source) == (3, "env")

    def test_openblas_variable_takes_precedence(self):
        env = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "5"}
        assert ParallelBudget.resolve(environ=env).blas == 2

    @pytest.mark.parametrize("value", ["0", "-1", "two", ""])
    def test_unusable_values_are_ignored(self, value):
        b = ParallelBudget.resolve(environ={"OPENBLAS_NUM_THREADS": value})
        assert (b.blas, b.source) == (1, "budget")

    def test_team_is_the_cores_left_per_rank(self):
        b = ParallelBudget.resolve(processes=CORES, environ={})
        assert (b.processes, b.team) == (CORES, 1)
        assert ParallelBudget.resolve(team=3, environ={}).team == 3
        env = {"REPRO_NUM_THREADS": "5", "OMP_NUM_THREADS": "1"}
        assert ParallelBudget.resolve(environ=env).team == 5

    def test_invalid_layer_counts_raise(self):
        with pytest.raises(ValueError):
            ParallelBudget.resolve(processes=0, environ={})
        with pytest.raises(ValueError):
            ParallelBudget.resolve(team=0, environ={})


class TestApply:
    def test_idempotent_and_reads_back_one(self, restore_budget):
        budget = ParallelBudget.resolve(environ={})
        assert budget.apply() is budget
        assert budget.apply() is budget
        assert process_budget() == budget
        threads = blas_threads()
        assert threads, "no OpenBLAS found through /proc/self/maps"
        assert set(threads.values()) == {1}

    @pytest.mark.skipif(CORES < 2, reason="OpenBLAS caps threads at the cores")
    def test_sets_every_loaded_library(self, restore_budget):
        budget = ParallelBudget.resolve(environ={})
        dataclasses.replace(budget, blas=2).apply()
        assert set(blas_threads().values()) == {2}
        budget.apply()
        assert set(blas_threads().values()) == {1}

    @pytest.mark.skipif(CORES < 2, reason="OpenBLAS caps threads at the cores")
    def test_a_library_solve_runs_under_the_budget(self):
        """A plain ``fsi`` call in a fresh interpreter with no BLAS
        variable set runs its BLAS single-threaded: the solve applies
        the process's budget before its first gemm."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.core.fsi import fsi
            from repro.core.pcyclic import random_pcyclic
            from repro.parallel.budget import blas_threads

            pc = random_pcyclic(8, 4, np.random.default_rng(0), scale=0.7)
            fsi(pc, 4)
            print(sorted(set(blas_threads().values())))
            """
        )
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[1]"

    def test_default_team_comes_from_the_budget(self):
        assert openmp.get_max_threads() == process_budget().team


class TestWorkers:
    def test_pool_worker_runs_one_blas_thread_after_recycle(
        self, monkeypatch, restore_budget
    ):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        # A threaded parent: forked workers would inherit it unless the
        # pool applies its own budget.
        dataclasses.replace(process_budget(), blas=2).apply()
        pool = WorkerPool(workers=1, task_fn=_report_blas)
        try:
            assert set(pool.run(_NO_RESULT).values()) == {1}
            pool._recycle(pool._generation)
            assert set(pool.run(_NO_RESULT).values()) == {1}
        finally:
            pool.shutdown()
        assert pool.budget.blas == 1

    def test_service_exports_its_budget(self):
        cfg = ServiceConfig(workers=1)
        with GreensService(cfg) as svc:
            expected = svc.budget.as_dict()
            assert svc.stats()["parallel"] == expected
            family = svc.metrics.registry.get("repro_parallel_budget_info")
            [(labels, child)] = list(family.samples())
        assert dict(zip(family.label_names, labels)) == {
            k: str(v) for k, v in expected.items()
        }
        assert child.value == 1.0
        assert expected["processes"] == 1
        assert "ranks" not in expected
        assert expected["team"] == cfg.threads_per_rank


def test_threaded_teams_without_blas_variables_exit_cleanly():
    """4 ranks of a ``threads`` transport fleet (one OS thread each)
    solving COLUMNS jobs at once, many times over, in a fresh
    interpreter with no BLAS variable set.  Concurrent solves aborted
    (heap corruption) while WRP solved through LAPACK ``getrs``, which
    is not safe to call from several threads at once."""
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.core.patterns import Pattern
        from repro.hubbard import HubbardModel, RectangularLattice
        from repro.hubbard.hs_field import HSField
        from repro.parallel import run_selected_fleet

        model = HubbardModel(RectangularLattice(3, 3), L=8, t=1.0, U=4.0,
                             beta=2.0)
        rng = np.random.default_rng(0)
        jobs = [(HSField.random(8, model.N, rng).h, 4, Pattern.COLUMNS,
                 q % 4) for q in range(8)]
        for _ in range(40):
            outs = run_selected_fleet(model, jobs, n_ranks=4,
                                      transport="threads")
            assert len(outs) == len(jobs)
        print("ok")
        """
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
