"""Every adjacency relation (Eqs. (4)-(7)) against the dense inverse.

The parametrised sweep covers every (k, l) position of a 6-block
matrix, hence every boundary case: diagonal starts, seam crossings
(row/column 1 <-> L), the corner, and generic interior moves.
"""

import numpy as np
import pytest

from repro.core.adjacency import AdjacencyOps
from repro.core.pcyclic import random_pcyclic, torus_index
from repro.telemetry import FlopTracer

L, N = 6, 4


@pytest.fixture(scope="module")
def setup():
    pc = random_pcyclic(L, N, np.random.default_rng(3), scale=0.7)
    G = np.linalg.inv(pc.to_dense())
    ops = AdjacencyOps(pc)

    def blk(k, l):
        k, l = torus_index(k, L), torus_index(l, L)
        return G[(k - 1) * N : k * N, (l - 1) * N : l * N]

    return pc, ops, blk


ALL_KL = [(k, l) for k in range(1, L + 1) for l in range(1, L + 1)]


@pytest.mark.parametrize("k,l", ALL_KL)
class TestMoves:
    def test_up(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.up(blk(k, l), k, l), blk(k - 1, l), atol=1e-9
        )

    def test_down(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.down(blk(k, l), k, l), blk(k + 1, l), atol=1e-9
        )

    def test_left(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.left(blk(k, l), k, l), blk(k, l - 1), atol=1e-9
        )

    def test_right(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.right(blk(k, l), k, l), blk(k, l + 1), atol=1e-9
        )

    def test_down_right_diagonal_move(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.down_right(blk(k, l), k, l), blk(k + 1, l + 1), atol=1e-9
        )

    def test_up_left_diagonal_move(self, setup, k, l):
        _, ops, blk = setup
        np.testing.assert_allclose(
            ops.up_left(blk(k, l), k, l), blk(k - 1, l - 1), atol=1e-9
        )


class TestInverseMoves:
    """up and down (left and right) are mutually inverse."""

    @pytest.mark.parametrize("k,l", [(1, 1), (3, 5), (6, 1), (1, 6), (6, 6)])
    def test_down_undoes_up(self, setup, k, l):
        _, ops, blk = setup
        g = blk(k, l)
        up = ops.up(g, k, l)
        back = ops.down(up, k - 1, l)
        np.testing.assert_allclose(back, g, atol=1e-9)

    @pytest.mark.parametrize("k,l", [(1, 1), (3, 5), (6, 1), (1, 6), (2, 2)])
    def test_left_undoes_right(self, setup, k, l):
        _, ops, blk = setup
        g = blk(k, l)
        right = ops.right(g, k, l)
        back = ops.left(right, k, l + 1)
        np.testing.assert_allclose(back, g, atol=1e-9)


class TestInverseCache:
    """Custom walks apply one ``B_i^{-1}`` many times: a formed inverse
    is kept, an exact one (O(N^2)) is formed anew."""

    def test_formed_inverse_cached(self, setup):
        pc, _, blk = setup
        ops = AdjacencyOps(pc)
        ops.up(blk(3, 1), 3, 1)
        inv = ops.inverse(3)
        with FlopTracer() as tr:
            ops.up(blk(3, 2), 3, 2)
            again = ops.inverse(3 + L)  # torus-wrapped
        assert again is inv
        assert tr.total_flops == 2.0 * N**3  # the move's gemm only
        np.testing.assert_array_equal(inv, pc.inverse(3))

    def test_exact_inverse_not_cached(self, hubbard_pc):
        ops = AdjacencyOps(hubbard_pc)
        first = ops.inverse(2)
        assert ops.inverse(2) is not first
        np.testing.assert_array_equal(first, hubbard_pc.inverse(2))


class TestColumnWalk:
    """Walking a full column via repeated moves stays accurate."""

    def test_full_column_walk_down(self, setup):
        _, ops, blk = setup
        l = 4
        g = blk(l, l)
        k = l
        for _ in range(L - 1):
            g = ops.down(g, k, l)
            k = torus_index(k + 1, L)
            np.testing.assert_allclose(g, blk(k, l), atol=1e-8)

    def test_full_row_walk_left(self, setup):
        _, ops, blk = setup
        k = 2
        g = blk(k, k)
        l = k
        for _ in range(L - 1):
            g = ops.left(g, k, l)
            l = torus_index(l - 1, L)
            np.testing.assert_allclose(g, blk(k, l), atol=1e-8)


class TestHubbardBoundaries:
    """Same relations on a physical Hubbard matrix (better conditioning)."""

    def test_all_moves_hubbard(self, hubbard_pc):
        Lh, Nh = hubbard_pc.L, hubbard_pc.N
        G = np.linalg.inv(hubbard_pc.to_dense())
        ops = AdjacencyOps(hubbard_pc)

        def blk(k, l):
            k, l = torus_index(k, Lh), torus_index(l, Lh)
            return G[(k - 1) * Nh : k * Nh, (l - 1) * Nh : l * Nh]

        worst = 0.0
        for k in range(1, Lh + 1):
            for l in range(1, Lh + 1):
                g = blk(k, l)
                worst = max(
                    worst,
                    np.abs(ops.up(g, k, l) - blk(k - 1, l)).max(),
                    np.abs(ops.down(g, k, l) - blk(k + 1, l)).max(),
                    np.abs(ops.left(g, k, l) - blk(k, l - 1)).max(),
                    np.abs(ops.right(g, k, l) - blk(k, l + 1)).max(),
                )
        assert worst < 1e-10
