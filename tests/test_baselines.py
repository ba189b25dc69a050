"""The dense-LU and explicit baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    dense_block,
    full_lu_flops,
    full_lu_inverse,
    lu_selected_inversion,
)
from repro.core.fsi import fsi
from repro.core.patterns import Pattern, Selection
from repro.core.pcyclic import random_pcyclic
from repro.telemetry import FlopTracer


class TestFullLU:
    def test_matches_numpy_inverse(self, small_pc):
        np.testing.assert_allclose(
            full_lu_inverse(small_pc),
            np.linalg.inv(small_pc.to_dense()),
            atol=1e-11,
        )

    def test_records_lu_stage(self, small_pc):
        with FlopTracer() as tr:
            full_lu_inverse(small_pc)
        assert tr.flops("lu") > 0
        assert tr.flops("cls") == 0

    def test_flop_count_cubic(self, small_pc):
        with FlopTracer() as tr:
            full_lu_inverse(small_pc)
        n = small_pc.shape[0]
        # getrf (2/3 n^3) + n-rhs solve (2 n^3).
        assert tr.total_flops == pytest.approx(2 / 3 * n**3 + 2 * n**3)

    def test_formula(self):
        assert full_lu_flops(100, 64) == 2.0 * 6400**3


class TestDenseBlock:
    def test_extraction(self, small_pc):
        G = full_lu_inverse(small_pc)
        N = small_pc.N
        np.testing.assert_array_equal(
            dense_block(G, 2, 3, N), G[N : 2 * N, 2 * N : 3 * N]
        )


class TestLUSelected:
    @pytest.mark.parametrize("pattern", list(Pattern))
    def test_agrees_with_fsi(self, small_pc, pattern):
        sel = Selection(pattern, L=small_pc.L, c=3, q=1)
        via_lu = lu_selected_inversion(small_pc, sel)
        via_fsi = fsi(small_pc, 3, pattern=pattern, q=1, num_threads=1).selected
        for kl in via_lu:
            np.testing.assert_allclose(via_lu[kl], via_fsi[kl], atol=1e-8)

    def test_block_set_matches_pattern(self, small_pc):
        sel = Selection(Pattern.COLUMNS, L=small_pc.L, c=2, q=0)
        out = lu_selected_inversion(small_pc, sel)
        assert set(out) == set(sel.block_indices())

    def test_blocks_contiguous(self, small_pc):
        sel = Selection(Pattern.DIAGONAL, L=small_pc.L, c=3, q=2)
        out = lu_selected_inversion(small_pc, sel)
        for _, blk in out.items():
            assert blk.flags["C_CONTIGUOUS"]


class TestCostComparison:
    def test_fsi_uses_far_fewer_flops_than_lu(self):
        """The headline claim, on real measured counts."""
        pc = random_pcyclic(16, 8, np.random.default_rng(0), scale=0.6)
        sel = Selection(Pattern.COLUMNS, L=16, c=4, q=1)
        with FlopTracer() as t_lu:
            lu_selected_inversion(pc, sel)
        with FlopTracer() as t_fsi:
            fsi(pc, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        assert t_fsi.total_flops < 0.25 * t_lu.total_flops
