"""Structured p-cyclic solves and determinants."""

import numpy as np
import pytest

from repro.core.pcyclic import BlockPCyclic, random_pcyclic
from repro.core.solve import PCyclicSolver, determinant
from repro.telemetry import FlopTracer


class TestSolve:
    @pytest.mark.parametrize("L,N", [(1, 4), (2, 3), (6, 4), (10, 5)])
    def test_residual(self, L, N):
        rng = np.random.default_rng(L * 10 + N)
        pc = random_pcyclic(L, N, rng, scale=0.6)
        rhs = rng.standard_normal((L * N, 3))
        x = PCyclicSolver(pc).solve(rhs)
        np.testing.assert_allclose(pc.matvec(x), rhs, atol=1e-11)

    def test_vector_rhs_shape_preserved(self, small_pc):
        rhs = np.ones(small_pc.shape[0])
        x = PCyclicSolver(small_pc).solve(rhs)
        assert x.shape == rhs.shape

    def test_matches_dense_solve(self, small_pc, rng):
        rhs = rng.standard_normal(small_pc.shape[0])
        x = PCyclicSolver(small_pc).solve(rhs)
        ref = np.linalg.solve(small_pc.to_dense(), rhs)
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_factor_once_solve_many(self, small_pc, rng):
        solver = PCyclicSolver(small_pc)
        for _ in range(3):
            rhs = rng.standard_normal(small_pc.shape[0])
            x = solver.solve(rhs)
            np.testing.assert_allclose(small_pc.matvec(x), rhs, atol=1e-10)

    def test_wrong_rhs_size(self, small_pc):
        with pytest.raises(ValueError, match="leading dimension"):
            PCyclicSolver(small_pc).solve(np.ones(7))

    def test_hubbard_matrix(self, hubbard_pc, rng):
        rhs = rng.standard_normal((hubbard_pc.shape[0], 2))
        x = PCyclicSolver(hubbard_pc).solve(rhs)
        np.testing.assert_allclose(hubbard_pc.matvec(x), rhs, atol=1e-9)

    def test_solve_cheaper_than_inverse(self, hubbard_pc):
        from repro.core.baselines import full_lu_inverse

        with FlopTracer() as t_solve:
            PCyclicSolver(hubbard_pc).solve(np.ones(hubbard_pc.shape[0]))
        with FlopTracer() as t_inv:
            full_lu_inverse(hubbard_pc)
        assert t_solve.total_flops < 0.2 * t_inv.total_flops


class TestSolveTranspose:
    """``M^T y = v`` from the one structured QR of ``M``."""

    @staticmethod
    def _pc(L: int, N: int, complex_: bool, seed: int) -> BlockPCyclic:
        rng = np.random.default_rng(seed)
        pc = random_pcyclic(L, N, rng, scale=0.6)
        if complex_:
            pc = BlockPCyclic(pc.B + 0.3j * rng.standard_normal(pc.B.shape))
        return pc

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("L", [1, 2, 7])
    @pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
    def test_matches_dense_transpose_solve(self, L, complex_, k):
        N = 4
        pc = self._pc(L, N, complex_, seed=10 * L + (k or 0))
        rng = np.random.default_rng(L)
        shape = (L * N,) if k is None else (L * N, k)
        v = rng.standard_normal(shape)
        if complex_:
            v = v + 1j * rng.standard_normal(shape)
        y = PCyclicSolver(pc).solve_transpose(v)
        assert y.shape == v.shape
        # Plain transpose, not the conjugate transpose.
        np.testing.assert_allclose(
            y, np.linalg.solve(pc.to_dense().T, v), rtol=1e-10, atol=1e-12
        )

    def test_shares_the_forward_factorisation(self, small_pc, rng):
        solver = PCyclicSolver(small_pc)
        v = rng.standard_normal((small_pc.shape[0], 2))
        y = solver.solve_transpose(v)
        x = solver.solve(v)
        np.testing.assert_allclose(small_pc.rmatvec(y), v, atol=1e-10)
        np.testing.assert_allclose(small_pc.matvec(x), v, atol=1e-10)

    def test_wrong_rhs_size(self, small_pc):
        with pytest.raises(ValueError, match="leading dimension"):
            PCyclicSolver(small_pc).solve_transpose(np.ones(7))


class TestDeterminant:
    @pytest.mark.parametrize("L,N", [(1, 3), (2, 4), (5, 3), (8, 4)])
    def test_matches_dense_slogdet(self, L, N):
        pc = random_pcyclic(L, N, np.random.default_rng(L + N), scale=0.7)
        sign, logabs = determinant(pc)
        ref_sign, ref_log = np.linalg.slogdet(pc.to_dense())
        assert sign == pytest.approx(ref_sign)
        assert logabs == pytest.approx(ref_log, rel=1e-10)

    def test_negative_determinant_detected(self):
        """Build a matrix with det < 0 by flipping one block's sign
        structure until the sign flips."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            pc = random_pcyclic(3, 3, rng, scale=1.2)
            ref_sign, _ = np.linalg.slogdet(pc.to_dense())
            if ref_sign < 0:
                sign, _ = determinant(pc)
                assert sign == pytest.approx(-1.0)
                return
        pytest.skip("no negative-determinant sample drawn")

    def test_dqmc_weight_identity(self, hubbard_pc):
        """det M = det(I + B_L ... B_1) — the DQMC configuration weight."""
        from repro.core.greens_explicit import cyclic_down_product

        sign, logabs = determinant(hubbard_pc)
        A = cyclic_down_product(hubbard_pc, hubbard_pc.L)
        ref_sign, ref_log = np.linalg.slogdet(np.eye(hubbard_pc.N) + A)
        assert sign == pytest.approx(ref_sign)
        assert logabs == pytest.approx(ref_log, rel=1e-9)
