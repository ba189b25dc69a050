"""CLS block cyclic reduction: clustering products and the seed property."""

import numpy as np
import pytest

from repro.core.bsofi import bsofi
from repro.core.cls import cls, cls_flops, cluster_product
from repro.core.pcyclic import torus_index
from repro.telemetry import FlopTracer


class TestClusterProduct:
    def test_definition(self, small_pc):
        # c=3, q=1, i=2: j0 = 5 -> B_5 B_4 B_3
        expected = small_pc.block(5) @ small_pc.block(4) @ small_pc.block(3)
        np.testing.assert_allclose(
            cluster_product(small_pc, 2, 3, 1), expected
        )

    def test_wraps_through_seam(self, small_pc):
        # c=3, q=2, i=1: j0 = 1 -> B_1 B_0 B_-1 = B_1 B_6 B_5
        expected = small_pc.block(1) @ small_pc.block(6) @ small_pc.block(5)
        np.testing.assert_allclose(
            cluster_product(small_pc, 1, 3, 2), expected
        )

    def test_c_equals_one(self, small_pc):
        np.testing.assert_allclose(
            cluster_product(small_pc, 4, 1, 0), small_pc.block(4)
        )


class TestCLS:
    def test_reduced_shape(self, small_pc):
        red = cls(small_pc, 3, 0, num_threads=1)
        assert red.L == 2 and red.N == small_pc.N

    def test_c_one_is_passthrough(self, small_pc):
        assert cls(small_pc, 1, 0) is small_pc

    def test_blocks_cover_all_factors(self, small_pc):
        """Product of all clustered blocks equals the product of all B's
        (up to cyclic rotation)."""
        red = cls(small_pc, 2, 0, num_threads=1)
        full = np.eye(small_pc.N)
        for j in range(small_pc.L, 0, -1):
            full = full @ small_pc.block(j)
        clustered = np.eye(small_pc.N)
        for i in range(red.L, 0, -1):
            clustered = clustered @ red.block(i)
        np.testing.assert_allclose(clustered, full, atol=1e-12)

    @pytest.mark.parametrize("c,q", [(2, 0), (2, 1), (3, 0), (3, 2), (6, 3)])
    def test_seed_property(self, small_pc, small_dense_inverse, block_of, c, q):
        """Eq. (8): G~_{k0,l0} = G_{c k0 - q, c l0 - q}."""
        red = cls(small_pc, c, q, num_threads=1)
        Gt = bsofi(red)
        b = small_pc.L // c
        for k0 in range(1, b + 1):
            for l0 in range(1, b + 1):
                k = torus_index(c * k0 - q, small_pc.L)
                l = torus_index(c * l0 - q, small_pc.L)
                np.testing.assert_allclose(
                    Gt[k0 - 1, l0 - 1],
                    block_of(small_dense_inverse, k, l, small_pc.N),
                    atol=1e-9,
                )

    def test_num_threads_is_accepted_and_changes_nothing(self, small_pc):
        a = cls(small_pc, 3, 1)
        b = cls(small_pc, 3, 1, num_threads=4)
        np.testing.assert_array_equal(a.B, b.B)

    def test_rejects_non_divisor(self, small_pc):
        with pytest.raises(ValueError, match="divisor"):
            cls(small_pc, 4, 0)

    def test_rejects_bad_q(self, small_pc):
        with pytest.raises(ValueError, match="q="):
            cls(small_pc, 3, 3)
        with pytest.raises(ValueError, match="q="):
            cls(small_pc, 3, -1)

    def test_c_one_requires_q_zero(self, small_pc):
        with pytest.raises(ValueError):
            cls(small_pc, 1, 1)


class TestFlops:
    def test_formula(self):
        assert cls_flops(100, 64, 10) == 2.0 * 10 * 9 * 64**3

    def test_formula_validates(self):
        with pytest.raises(ValueError):
            cls_flops(100, 64, 7)

    def test_measured_matches_formula_exactly(self, small_pc):
        """CLS is pure gemms: the tracer count equals 2 b (c-1) N^3."""
        with FlopTracer() as tr:
            cls(small_pc, 3, 0, num_threads=1)
        assert tr.total_flops == cls_flops(small_pc.L, small_pc.N, 3)

    def test_num_threads_changes_neither_flops_nor_output(self, small_pc):
        with FlopTracer() as tr:
            b = cls(small_pc, 2, 1, num_threads=3)
        assert tr.total_flops == cls_flops(small_pc.L, small_pc.N, 2)
        np.testing.assert_array_equal(b.B, cls(small_pc, 2, 1).B)
