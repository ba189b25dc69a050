"""End-to-end FSI driver tests (Alg. 1)."""

import numpy as np
import pytest

from repro.core.fsi import FSIResult, fsi, fsi_flops
from repro.core.patterns import Pattern, Selection
from repro.core.pcyclic import random_pcyclic
from repro.telemetry import FlopTracer


@pytest.fixture(scope="module")
def problem():
    pc = random_pcyclic(12, 4, np.random.default_rng(8), scale=0.65)
    return pc, np.linalg.inv(pc.to_dense())


class TestEndToEnd:
    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_all_patterns_accurate(self, problem, pattern):
        pc, G = problem
        res = fsi(pc, 4, pattern=pattern, q=2, num_threads=1)
        assert res.selected.max_relative_error(G) < 1e-8

    @pytest.mark.parametrize("c", [2, 3, 4, 6])
    def test_cluster_sizes(self, problem, c):
        pc, G = problem
        res = fsi(pc, c, pattern=Pattern.COLUMNS, q=c - 1, num_threads=1)
        assert res.selected.max_relative_error(G) < 1e-7

    def test_hubbard_validation_small(self, hubbard_pc):
        """The Sec. V-A check at test scale: rel err far below 1e-10."""
        G = np.linalg.inv(hubbard_pc.to_dense())
        res = fsi(hubbard_pc, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        assert res.selected.max_relative_error(G) < 1e-12


class TestQHandling:
    def test_explicit_q_respected(self, problem):
        pc, _ = problem
        res = fsi(pc, 4, q=3, num_threads=1)
        assert res.selection.q == 3

    def test_random_q_deterministic_with_seed(self, problem):
        pc, _ = problem
        a = fsi(pc, 4, rng=77, num_threads=1)
        b = fsi(pc, 4, rng=77, num_threads=1)
        assert a.selection.q == b.selection.q

    def test_random_q_in_range(self, problem):
        pc, _ = problem
        qs = {fsi(pc, 4, rng=i, num_threads=1).selection.q for i in range(20)}
        assert qs <= set(range(4))
        assert len(qs) > 1  # actually randomised

    def test_rejects_bad_c(self, problem):
        pc, _ = problem
        with pytest.raises(ValueError, match="divisor"):
            fsi(pc, 5)


class TestResultObject:
    def test_fields(self, problem):
        pc, _ = problem
        res = fsi(pc, 3, pattern=Pattern.ROWS, q=0, num_threads=1)
        assert isinstance(res, FSIResult)
        assert res.seeds.shape == (4, 4, pc.N, pc.N)
        assert res.selection == Selection(Pattern.ROWS, L=12, c=3, q=0)

    def test_seeds_are_exact_blocks(self, problem, block_of):
        pc, G = problem
        res = fsi(pc, 4, pattern=Pattern.DIAGONAL, q=1, num_threads=1)
        b, c, q = 3, 4, 1
        for k0 in range(1, b + 1):
            for l0 in range(1, b + 1):
                np.testing.assert_allclose(
                    res.seeds[k0 - 1, l0 - 1],
                    block_of(G, c * k0 - q, c * l0 - q, pc.N),
                    atol=1e-9,
                )

    def test_seeds_reusable_for_other_patterns(self, problem):
        """The engine wraps ROWS/COLUMNS/FULL_DIAGONAL from one seed grid."""
        from repro.core.wrap import wrap

        pc, G = problem
        res = fsi(pc, 4, pattern=Pattern.FULL_DIAGONAL, q=2, num_threads=1)
        rows = wrap(
            pc,
            res.seeds,
            Selection(Pattern.ROWS, L=12, c=4, q=2),
            num_threads=1,
        )
        assert rows.max_relative_error(G) < 1e-8


class TestTracerIntegration:
    def test_stage_labels_present(self, problem):
        pc, _ = problem
        with FlopTracer() as tr:
            fsi(pc, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        assert set(tr.stages) >= {"cls", "bsofi", "wrp"}
        assert tr.flops("cls") > 0
        assert tr.flops("bsofi") > 0
        assert tr.flops("wrp") > 0

    def test_stage_flops_near_formulas(self, problem):
        """Measured stage flops within 2x of the paper's leading terms
        (measured counts include lower-order factorisation work)."""
        from repro.core.bsofi import bsofi_flops
        from repro.core.cls import cls_flops
        from repro.core.wrap import wrap_flops

        pc, _ = problem
        with FlopTracer() as tr:
            fsi(pc, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        assert tr.flops("cls") == cls_flops(12, 4, 4)
        assert (
            0.5 * bsofi_flops(3, 4)
            < tr.flops("bsofi")
            < 3.0 * bsofi_flops(3, 4)
        )
        assert (
            0.5 * wrap_flops(12, 4, 4, Pattern.COLUMNS)
            < tr.flops("wrp")
            < 3.0 * wrap_flops(12, 4, 4, Pattern.COLUMNS)
        )


class TestFlopsFormula:
    def test_columns_total(self):
        total = fsi_flops(100, 64, 10, Pattern.COLUMNS)
        from repro.core.bsofi import bsofi_flops
        from repro.core.cls import cls_flops
        from repro.core.wrap import wrap_flops

        assert total == cls_flops(100, 64, 10) + bsofi_flops(
            10, 64
        ) + wrap_flops(100, 64, 10, Pattern.COLUMNS)

    def test_fsi_beats_explicit_for_columns(self):
        from repro.core.flops import explicit_form_flops

        N, L, c = 100, 100, 10
        assert fsi_flops(L, N, c, Pattern.COLUMNS) < 0.1 * explicit_form_flops(
            L, N, c, Pattern.COLUMNS
        )

    def test_fsi_beats_full_lu(self):
        from repro.core.baselines import full_lu_flops

        N, L, c = 100, 100, 10
        assert fsi_flops(L, N, c, Pattern.COLUMNS) < 0.05 * full_lu_flops(L, N)
