"""Alg. 3 on SimMPI: distribution, reduction, decomposition invariance."""

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.hubbard import HSField, HubbardModel, RectangularLattice
from repro.parallel.hybrid import (
    FleetMatrixError,
    HybridConfig,
    HybridReport,
    run_fsi_fleet,
    run_selected_fleet,
)
from repro.parallel.simmpi import RankError


@pytest.fixture(scope="module")
def model():
    return HubbardModel(RectangularLattice(3, 3), L=8, U=2.0, beta=1.0)


class TestConfig:
    def test_idle_ranks_rejected(self):
        with pytest.raises(ValueError, match="idle"):
            HybridConfig(n_matrices=2, n_ranks=3, threads_per_rank=1, c=4)

    def test_batch_bounds_partition(self):
        cfg = HybridConfig(n_matrices=7, n_ranks=3, threads_per_rank=1, c=4)
        bounds = [cfg.batch_bounds(r) for r in range(3)]
        assert bounds == [(0, 3), (3, 5), (5, 7)]

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            HybridConfig(n_matrices=0, n_ranks=1, threads_per_rank=1, c=4)
        with pytest.raises(ValueError):
            HybridConfig(n_matrices=4, n_ranks=2, threads_per_rank=0, c=4)


class TestFleet:
    def test_report_fields(self, model):
        rep = run_fsi_fleet(
            model,
            HybridConfig(n_matrices=4, n_ranks=2, threads_per_rank=1, c=4, seed=1),
        )
        assert isinstance(rep, HybridReport)
        assert rep.matrices_done == 4
        assert rep.global_measurements["count"] == 4.0
        assert rep.per_rank_peak_bytes > 0
        assert rep.elapsed_seconds > 0
        assert rep.comm.messages["scatter"] == 1

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_decomposition_invariance(self, model, ranks):
        """Global sums identical for any rank decomposition (same seed)."""
        rep = run_fsi_fleet(
            model,
            HybridConfig(
                n_matrices=5, n_ranks=ranks, threads_per_rank=1, c=4, seed=9
            ),
        )
        ref = run_fsi_fleet(
            model,
            HybridConfig(n_matrices=5, n_ranks=1, threads_per_rank=1, c=4, seed=9),
        )
        for key in ("trace_sum", "frobenius_sq"):
            assert rep.global_measurements[key] == pytest.approx(
                ref.global_measurements[key], rel=1e-12
            )

    def test_threads_do_not_change_results(self, model):
        a = run_fsi_fleet(
            model,
            HybridConfig(n_matrices=2, n_ranks=2, threads_per_rank=1, c=4, seed=5),
        )
        b = run_fsi_fleet(
            model,
            HybridConfig(n_matrices=2, n_ranks=2, threads_per_rank=3, c=4, seed=5),
        )
        assert a.global_measurements["trace_sum"] == pytest.approx(
            b.global_measurements["trace_sum"], rel=1e-12
        )

    def test_trace_sum_matches_direct_fsi(self, model):
        """The reduced quantity equals a serial recomputation."""
        cfg = HybridConfig(
            n_matrices=2, n_ranks=2, threads_per_rank=1, c=4, seed=2
        )
        rep = run_fsi_fleet(model, cfg)
        L, N = model.L, model.N
        rng = np.random.default_rng(cfg.seed)
        all_h = rng.choice(
            np.array([-1, 1], dtype=np.int8), size=(2, 1 * L * N)
        )
        expected = 0.0
        for g in range(2):
            field = HSField.from_buffer(all_h[g], L, N)
            pc = model.build_matrix(field, +1)
            res = fsi(
                pc,
                cfg.c,
                pattern=Pattern.COLUMNS,
                rng=np.random.default_rng((cfg.seed, g)),
                num_threads=1,
            )
            for (k, l), blk in res.selected.items():
                if k == l:
                    expected += float(np.trace(blk))
        assert rep.global_measurements["trace_sum"] == pytest.approx(
            expected, rel=1e-12
        )

    def test_diagonal_pattern_trace_q_invariant(self, model):
        """tr G_kk is the same for every k (cyclic products are similar
        matrices) — so the diagonal-pattern trace sum is independent of
        the random q draws."""
        a = run_fsi_fleet(
            model,
            HybridConfig(
                n_matrices=2,
                n_ranks=1,
                threads_per_rank=1,
                c=4,
                pattern=Pattern.DIAGONAL,
                seed=3,
            ),
        )
        b = run_fsi_fleet(
            model,
            HybridConfig(
                n_matrices=2,
                n_ranks=1,
                threads_per_rank=1,
                c=4,
                pattern=Pattern.DIAGONAL,
                seed=3,
            ),
        )
        assert a.global_measurements["trace_sum"] == pytest.approx(
            b.global_measurements["trace_sum"]
        )

class TestSelectedFleet:
    @staticmethod
    def jobs_for(model, qs, c=4, pattern=Pattern.DIAGONAL, seed=4):
        rng = np.random.default_rng(seed)
        return [
            (HSField.random(model.L, model.N, rng).h, c, pattern, q)
            for q in qs
        ]

    def test_matches_direct_fsi(self, model):
        jobs = self.jobs_for(model, qs=(0, 1, 2))
        outs = run_selected_fleet(model, jobs, n_ranks=2)
        assert len(outs) == len(jobs)
        for (buf, c, pattern, q), out in zip(jobs, outs):
            field = HSField.from_buffer(
                np.asarray(buf).reshape(-1), model.L, model.N
            )
            res = fsi(
                model.build_matrix(field, +1), c, pattern=pattern, q=q,
                num_threads=1,
            )
            assert set(out.blocks) == set(dict(res.selected.items()))
            for kl, blk in res.selected.items():
                np.testing.assert_allclose(
                    out.blocks[kl], blk, rtol=1e-12, atol=1e-12
                )
            assert out.flops > 0
            assert out.seconds > 0

    def test_rank_invariance(self, model):
        jobs = self.jobs_for(model, qs=(0, 1, 2, 3), seed=6)
        serial = run_selected_fleet(model, jobs, n_ranks=1)
        fleet = run_selected_fleet(model, jobs, n_ranks=3)
        for a, b in zip(serial, fleet):
            for kl, blk in a.blocks.items():
                np.testing.assert_allclose(
                    b.blocks[kl], blk, rtol=1e-12, atol=1e-12
                )

    def test_failure_reports_global_matrix_index(self, model, monkeypatch):
        """Regression: a per-matrix failure inside a fleet names the
        *global* index of the failing matrix, not just the rank."""
        import importlib

        # `repro.core.fsi` the *submodule* — the package re-exports the
        # function under the same name, shadowing attribute access.
        fsi_module = importlib.import_module("repro.core.fsi")
        real_fsi = fsi_module.fsi
        poison_q = 3

        def failing_fsi(pc, c, **kwargs):
            if kwargs.get("q") == poison_q:
                raise ValueError("injected per-matrix failure")
            return real_fsi(pc, c, **kwargs)

        monkeypatch.setattr(fsi_module, "fsi", failing_fsi)
        jobs = self.jobs_for(model, qs=(0, 1, poison_q, 0), seed=7)
        with pytest.raises(RankError, match="fleet matrix 2") as exc_info:
            run_selected_fleet(model, jobs, n_ranks=2)
        err = exc_info.value.original
        assert isinstance(err, FleetMatrixError)
        assert err.matrix_index == 2
        assert isinstance(err.original, ValueError)

    def test_empty_jobs(self, model):
        assert run_selected_fleet(model, [], n_ranks=2) == []


class TestLazySeedGrid:
    def test_diagonal_fleet_records_no_grid_completion(self, model):
        """Fleet bookkeeping counts the seeds a solve holds; it never
        completes the seed grid a DIAGONAL solve does not need."""
        from repro.core.bsofi import bsofi_band_flops
        from repro.parallel.hybrid import rank_work
        from repro.perf.tracer import FlopTracer
        from repro.transport import create_world

        cfg = HybridConfig(n_matrices=4, n_ranks=2, threads_per_rank=1, c=4,
                           pattern=Pattern.DIAGONAL)

        def traced(comm, model, cfg):
            with FlopTracer() as tr:
                rank_work(comm, model, cfg)
            return tr.summary()

        per_rank = create_world(2, backend="threads").run(traced, model, cfg)
        for stages in per_rank:
            assert "bsofi.grid" not in stages
            assert stages["bsofi"]["flops"] == pytest.approx(
                2 * bsofi_band_flops(model.L // 4, model.N))

    def test_peak_counts_the_band(self, model):
        kwargs = dict(n_matrices=2, n_ranks=1, threads_per_rank=1, c=4)
        diag = run_fsi_fleet(model, HybridConfig(pattern=Pattern.DIAGONAL,
                                                 **kwargs))
        cols = run_fsi_fleet(model, HybridConfig(**kwargs))
        assert 0 < diag.per_rank_peak_bytes < cols.per_rank_peak_bytes


class TestMemory:
    def test_peak_memory_plausible(self, model):
        from repro.perf.machine import fsi_rank_memory_bytes

        rep = run_fsi_fleet(
            model,
            HybridConfig(n_matrices=2, n_ranks=1, threads_per_rank=1, c=4, seed=0),
        )
        modeled = fsi_rank_memory_bytes(
            model.N, model.L, 4, Pattern.COLUMNS, include_workspace=False
        )
        # Measured peak counts matrix + seeds + selection; must be within
        # the workspace-free model and its workspace-padded envelope.
        assert rep.per_rank_peak_bytes <= modeled * 1.05
        assert rep.per_rank_peak_bytes >= 0.5 * modeled
