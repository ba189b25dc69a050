"""Cross-module integration tests, including the paper-scale validation.

The Sec. V-A validation runs at the paper's exact geometry
(N, L) = (100, 64) with the explicit-formula oracle (cheap per block)
instead of the dense 6400^2 inverse — ``benchmarks/exp_v1_validation.py``
runs the full dense-oracle version.
"""

import numpy as np
import pytest

from repro import (
    DQMC,
    DQMCConfig,
    HubbardModel,
    HybridConfig,
    Pattern,
    RectangularLattice,
    build_hubbard_matrix,
    fsi,
    run_fsi_fleet,
)
from repro.core.greens_explicit import greens_block
from repro.core.stability import recommend_c


class TestPaperScaleValidation:
    """Sec. V-A at (N, L) = (100, 64), (t, beta, U) = (1, 1, 2), c = 8."""

    @pytest.fixture(scope="class")
    def paper_problem(self):
        M, model, field = build_hubbard_matrix(
            10, 10, L=64, t=1.0, U=2.0, beta=1.0, rng=2016
        )
        return M

    def test_selected_columns_below_1e10(self, paper_problem):
        M = paper_problem
        c = recommend_c(64)
        assert c == 8
        res = fsi(M, c, pattern=Pattern.COLUMNS, q=3, num_threads=2)
        # Spot-check a spread of blocks against the explicit formula
        # (exact oracle, cheap per block at N=100).
        rng = np.random.default_rng(0)
        worst = 0.0
        keys = list(res.selected)
        for idx in rng.choice(len(keys), size=24, replace=False):
            k, l = keys[idx]
            ref = greens_block(M, k, l)
            err = np.linalg.norm(res.selected[(k, l)] - ref) / np.linalg.norm(ref)
            worst = max(worst, float(err))
        assert worst < 1e-10  # the paper's validation threshold

    def test_seed_grid_matches_oracle(self, paper_problem):
        M = paper_problem
        res = fsi(M, 8, pattern=Pattern.DIAGONAL, q=5, num_threads=2)
        for k0 in (1, 4, 8):
            k = 8 * k0 - 5
            ref = greens_block(M, k, k)
            err = np.abs(res.seeds[k0 - 1, k0 - 1] - ref).max()
            assert err < 1e-12


class TestEngineHybridConsistency:
    def test_engine_greens_agree_with_standalone_fsi(self):
        model = HubbardModel(RectangularLattice(3, 3), L=8, U=4.0, beta=2.0)
        sim = DQMC(
            model,
            DQMCConfig(warmup_sweeps=1, measurement_sweeps=0, c=4, seed=1,
                       num_threads=1),
        )
        sim.sweep()
        bundles = sim.compute_greens(q=2)
        pc = model.build_matrix(sim.field, +1)
        res = fsi(pc, 4, pattern=Pattern.FULL_DIAGONAL, q=2, num_threads=1)
        for l in (1, 4, 8):
            np.testing.assert_allclose(
                bundles[+1].full_diagonal[(l, l)],
                res.selected[(l, l)],
                atol=1e-12,
            )

    def test_fleet_runs_all_patterns(self):
        model = HubbardModel(RectangularLattice(2, 2), L=8, U=2.0, beta=1.0)
        for pattern in (Pattern.DIAGONAL, Pattern.ROWS, Pattern.FULL_DIAGONAL):
            rep = run_fsi_fleet(
                model,
                HybridConfig(
                    n_matrices=2,
                    n_ranks=2,
                    c=4,
                    pattern=pattern,
                    seed=1,
                ),
            )
            assert rep.global_measurements["count"] == 2.0


class TestExperimentScriptsImportAndRun:
    """Every benchmarks/exp_* module runs at reduced scale."""

    @pytest.fixture(autouse=True)
    def _benchdir(self, monkeypatch):
        from pathlib import Path

        bench = Path(__file__).resolve().parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(bench))

    def test_exp_t1(self):
        import exp_t1_patterns as exp

        table = exp.run(L=20, c=4, q=1)
        assert len(table.rows) == 4
        assert "90%" in exp.memory_example()

    def test_exp_t2(self):
        import exp_t2_complexity as exp

        assert len(exp.formula_table().rows) == 4
        measured = exp.measured_table(L=8, N=6, c=2, seed=0)
        assert len(measured.rows) == 3

    def test_exp_v1_scaled(self):
        import exp_v1_validation as exp

        table = exp.run(nx=4, ny=4, L=16, seed=1)
        values = {str(r[0]): r[1] for r in table.rows}
        assert values["validation PASS"] is True

    def test_exp_f8(self):
        import exp_f8_single_node as exp

        assert len(exp.fig8_top().rows) == 5
        assert "openmp" in exp.fig8_bottom().lines
        assert len(exp.real_stage_split().rows) == 4

    def test_exp_f9(self):
        import exp_f9_hybrid as exp

        table = exp.modeled_sweep()
        assert len(table.rows) == 4
        # N=576 must OOM at pure MPI, run at 200x12.
        row576 = [r for r in table.rows if r[0] == 576][0]
        assert row576[-1] == "OOM"
        assert isinstance(row576[2], float)

    def test_exp_f10(self):
        import exp_f10_profile as exp

        table = exp.modeled_profile()
        assert len(table.rows) == 3

    def test_exp_f11(self):
        import exp_f11_dqmc as exp

        table = exp.modeled_runtime(N=128, L=20, c=4, w=2, m=4)
        assert len(table.rows) == 5

    def test_exp_a1(self):
        import exp_a1_cluster_size as exp

        table = exp.run(beta=1.0, L=8, nx=2, ny=2)
        assert len(table.rows) >= 2

    def test_exp_a2(self):
        import exp_a2_bsofi_stability as exp

        table = exp.run(L=8, c=4, nx=2, ny=2)
        assert len(table.rows) == 5


class TestValidationModule:
    def test_dense_oracle_passes_on_hubbard(self, ):
        from repro import Pattern, build_hubbard_matrix, fsi
        from repro.core.validate import validate_selected

        M, _, _ = build_hubbard_matrix(3, 3, L=8, U=2.0, beta=1.0, rng=0)
        res = fsi(M, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        report = validate_selected(M, res.selected, oracle="dense")
        assert report.passed
        assert report.blocks_checked == len(res.selected)
        assert report.max_relative_error < 1e-12

    def test_explicit_oracle_with_sampling(self):
        from repro import Pattern, build_hubbard_matrix, fsi
        from repro.core.validate import validate_selected

        M, _, _ = build_hubbard_matrix(3, 3, L=8, U=2.0, beta=1.0, rng=1)
        res = fsi(M, 4, pattern=Pattern.ROWS, q=0, num_threads=1)
        report = validate_selected(
            M, res.selected, oracle="explicit", sample=5, rng=2
        )
        assert report.passed
        assert report.blocks_checked == 5

    def test_detects_corruption(self):
        from repro import Pattern, build_hubbard_matrix, fsi
        from repro.core.validate import validate_selected

        M, _, _ = build_hubbard_matrix(2, 2, L=8, U=2.0, beta=1.0, rng=2)
        res = fsi(M, 4, pattern=Pattern.DIAGONAL, q=1, num_threads=1)
        key = next(iter(res.selected))
        res.selected[key][0, 0] += 1.0  # corrupt one entry
        report = validate_selected(M, res.selected, oracle="dense")
        assert not report.passed

    def test_bad_arguments(self):
        from repro import Pattern, build_hubbard_matrix, fsi
        from repro.core.validate import validate_selected

        M, _, _ = build_hubbard_matrix(2, 2, L=4, U=2.0, beta=1.0, rng=3)
        res = fsi(M, 2, pattern=Pattern.DIAGONAL, q=0, num_threads=1)
        import pytest as _pytest

        with _pytest.raises(ValueError, match="oracle"):
            validate_selected(M, res.selected, oracle="magic")
        with _pytest.raises(ValueError, match="sample"):
            validate_selected(M, res.selected, sample=0)
