"""Complex arithmetic through the whole pipeline + twisted boundaries."""

import numpy as np
import pytest

from repro.core.bsofi import bsofi, bsofi_qr
from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic
from repro.core.solve import PCyclicSolver, determinant
from repro.hubbard import HSField, RectangularLattice
from repro.hubbard.twisted import TwistedHubbardModel, twisted_adjacency
from repro.resilience import guards
from repro.resilience.guards import GuardConfig, NumericalHealthError


def random_complex_pc(L, N, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    B = (rng.standard_normal((L, N, N)) + 1j * rng.standard_normal((L, N, N)))
    return BlockPCyclic(B * (scale / np.sqrt(N)))


@pytest.fixture(scope="module")
def twisted_setup():
    lattice = RectangularLattice(3, 3)
    model = TwistedHubbardModel(lattice, L=8, theta=(0.7, 0.3), U=4.0, beta=2.0)
    field = HSField.random(8, 9, np.random.default_rng(5))
    return model, field, model.build_matrix(field, +1)


class TestComplexCore:
    def test_bsofi_inverts_complex(self):
        pc = random_complex_pc(6, 4, seed=0)
        G = bsofi(pc)
        dense = np.block([[G[i, j] for j in range(6)] for i in range(6)])
        np.testing.assert_allclose(
            pc.to_dense() @ dense, np.eye(24), atol=1e-11
        )

    @pytest.mark.filterwarnings("error")
    def test_dense_factors_keep_the_imaginary_part(self):
        pc = random_complex_pc(5, 3, seed=2)
        f = bsofi_qr(pc)
        Q, R = f.to_dense_q(), f.to_dense_r()
        assert Q.dtype == R.dtype == np.complex128
        np.testing.assert_allclose(Q @ R, pc.to_dense(), atol=1e-12)
        np.testing.assert_allclose(Q.conj().T @ Q, np.eye(15), atol=1e-12)

    def test_panel_q_unitary(self):
        pc = random_complex_pc(4, 3, seed=1)
        f = bsofi_qr(pc)
        for i in range(3):
            np.testing.assert_allclose(
                f.Q[i].conj().T @ f.Q[i], np.eye(6), atol=1e-12
            )

    @pytest.mark.parametrize("pattern", [Pattern.COLUMNS, Pattern.FULL_DIAGONAL])
    def test_fsi_complex(self, pattern):
        pc = random_complex_pc(8, 4, seed=2)
        G = np.linalg.inv(pc.to_dense())
        res = fsi(pc, 4, pattern=pattern, q=1, num_threads=1)
        assert res.selected.max_relative_error(G) < 1e-10

    def test_solver_complex(self):
        pc = random_complex_pc(6, 5, seed=3)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        x = PCyclicSolver(pc).solve(rhs)
        np.testing.assert_allclose(pc.matvec(x), rhs, atol=1e-11)

    def test_real_rhs_complex_matrix(self):
        pc = random_complex_pc(4, 3, seed=5)
        x = PCyclicSolver(pc).solve(np.ones(12))
        assert np.iscomplexobj(x)
        np.testing.assert_allclose(pc.matvec(x), np.ones(12), atol=1e-11)

    def test_slogdet_complex_phase(self):
        pc = random_complex_pc(5, 4, seed=6)
        phase, logabs = determinant(pc)
        ref_phase, ref_log = np.linalg.slogdet(pc.to_dense())
        assert complex(phase) == pytest.approx(complex(ref_phase), abs=1e-10)
        assert logabs == pytest.approx(ref_log, rel=1e-10)
        assert abs(abs(complex(phase)) - 1.0) < 1e-10

    def test_real_matrix_still_returns_real_sign(self, small_pc):
        sign, _ = determinant(small_pc)
        assert isinstance(sign, float)


class TestTwistedBoundaries:
    def test_twisted_hopping_hermitian(self):
        lat = RectangularLattice(4, 4)
        Kt = twisted_adjacency(lat, (1.1, -0.4))
        np.testing.assert_allclose(Kt, Kt.conj().T, atol=1e-13)
        # Magnitudes unchanged — only phases attach.
        np.testing.assert_allclose(np.abs(Kt), lat.adjacency, atol=1e-13)

    def test_zero_twist_reduces_to_real(self, twisted_setup):
        model, field, _ = twisted_setup
        zero = TwistedHubbardModel(
            model.lattice, L=model.L, theta=(0.0, 0.0), U=model.U, beta=model.beta
        )
        pc_twisted = zero.build_matrix(field, +1)
        pc_real = zero.untwisted().build_matrix(field, +1)
        np.testing.assert_allclose(pc_twisted.B, pc_real.B, atol=1e-12)
        assert np.abs(pc_twisted.B.imag).max() < 1e-14

    def test_fsi_on_twisted_matrix(self, twisted_setup):
        _, _, pc = twisted_setup
        G = np.linalg.inv(pc.to_dense())
        res = fsi(pc, 4, pattern=Pattern.COLUMNS, q=2, num_threads=1)
        assert res.selected.max_relative_error(G) < 1e-11

    def test_equal_time_greens_hermitian_spectrum(self, twisted_setup):
        """G_kk of a twisted Hubbard matrix has eigenvalues in [0, 1]
        (fermionic occupation structure survives the twist)."""
        _, _, pc = twisted_setup
        res = fsi(pc, 4, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1)
        for l in (1, 4, 8):
            ev = np.linalg.eigvals(res.selected[(l, l)])
            assert np.all(ev.real > -1e-9) and np.all(ev.real < 1 + 1e-9)

    def test_opposite_twist_conjugates_weight(self, twisted_setup):
        """theta -> -theta conjugates the matrix (only the Peierls
        phases are complex), hence conjugates det M — the symmetry that
        twist-averaged QMC exploits to keep averaged weights real."""
        model, field, pc_up = twisted_setup
        neg = TwistedHubbardModel(
            model.lattice, L=model.L,
            theta=(-model.theta[0], -model.theta[1]),
            U=model.U, beta=model.beta,
        )
        pc_neg = neg.build_matrix(field, +1)
        np.testing.assert_allclose(pc_neg.B, pc_up.B.conj(), atol=1e-13)
        ph_pos, log_pos = determinant(pc_up)
        ph_neg, log_neg = determinant(pc_neg)
        assert complex(ph_neg) == pytest.approx(
            np.conj(complex(ph_pos)), abs=1e-10
        )
        assert log_neg == pytest.approx(log_pos, rel=1e-12)

    def test_twist_averaged_density_real(self, twisted_setup):
        """Averaging over +-theta makes the density exactly real:
        G(-theta) = G(theta)^*."""
        model, field, pc_pos = twisted_setup
        neg = TwistedHubbardModel(
            model.lattice, L=model.L,
            theta=(-model.theta[0], -model.theta[1]),
            U=model.U, beta=model.beta,
        )
        pc_neg = neg.build_matrix(field, +1)
        res_pos = fsi(pc_pos, 4, pattern=Pattern.DIAGONAL, q=0, num_threads=1)
        res_neg = fsi(pc_neg, 4, pattern=Pattern.DIAGONAL, q=0, num_threads=1)
        k = res_pos.selection.seeds[0]
        tr = np.trace(res_pos.selected[(k, k)]) + np.trace(
            res_neg.selected[(k, k)]
        )
        assert abs(np.imag(tr)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            TwistedHubbardModel(RectangularLattice(2, 2), L=0, theta=(0, 0))


class TestComplexGuards:
    """The guard battery on complex data (the spectral serving path)."""

    def test_screen_finite_catches_either_component(self):
        clean = (np.ones((4, 4)) + 1j * np.ones((4, 4)))
        guards.screen_finite("test", clean)  # must not raise
        for poison in (np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf):
            bad = clean.copy()
            bad[2, 1] += poison
            with pytest.raises(NumericalHealthError) as err:
                guards.screen_finite("test", bad)
            assert err.value.check == "finite"

    def test_screen_finite_complex_no_sign_cancellation(self):
        """Magnitude screening: opposite-signed infinities in the two
        components cannot cancel to a finite quick-scan value."""
        bad = np.zeros((2, 2), dtype=np.complex128)
        bad[0, 0] = np.inf
        bad[1, 1] = -np.inf
        bad[0, 1] = 1j * np.inf
        bad[1, 0] = -1j * np.inf
        with pytest.raises(NumericalHealthError):
            guards.screen_finite("test", bad)

    def test_estimate_condition_complex_large_block(self):
        """A large complex block's estimate (``zgecon``) lands within a
        modest factor of the exact 1-norm condition number."""
        n = 160
        rng = np.random.default_rng(17)
        A = (rng.standard_normal((n, n))
             + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        A += np.eye(n)  # keep it comfortably invertible
        est = guards.estimate_condition(A)
        exact = float(np.linalg.cond(A, 1))
        assert np.isfinite(est)
        assert 0.1 * exact <= est <= 10.0 * exact

    def test_estimate_condition_complex_nonfinite(self):
        A = np.eye(200, dtype=np.complex128)
        A[3, 3] = 1j * np.nan
        assert guards.estimate_condition(A) == np.inf

    def test_guarded_solve_and_inv_complex(self):
        rng = np.random.default_rng(23)
        A = (rng.standard_normal((8, 8))
             + 1j * rng.standard_normal((8, 8)) + 4.0 * np.eye(8))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x = guards.guarded_solve(A, b)
        np.testing.assert_allclose(A @ x, b, atol=1e-12)
        inv = guards.guarded_inv(A)
        np.testing.assert_allclose(A @ inv, np.eye(8), atol=1e-12)
        A[0, 0] = np.inf * 1j
        with pytest.raises(NumericalHealthError):
            guards.guarded_solve(A, b)

    def test_cluster_conditions_complex(self):
        pc = random_complex_pc(6, 4, seed=31)
        config = GuardConfig(condition_samples=6)
        worst = guards.check_cluster_conditions(pc.B, config)
        assert np.isfinite(worst) and worst >= 1.0
        tight = GuardConfig(condition_samples=6, condition_limit=1.0)
        with pytest.raises(NumericalHealthError) as err:
            guards.check_cluster_conditions(pc.B, tight)
        assert err.value.check == "condition"

    def test_seed_residual_reads_the_band(self):
        from repro.core.bsofi import SeedBand, bsofi_band

        pc = random_complex_pc(5, 3, seed=38)
        band = bsofi_band(bsofi_qr(pc))
        config = GuardConfig(residual_samples=5)
        assert guards.check_seed_residual(pc.B, band, config) < 1e-12
        assert guards.check_seed_residual(
            pc.B, band, config
        ) == pytest.approx(guards.check_seed_residual(pc.B, bsofi(pc), config))
        for name in ("diag", "upper", "corner"):
            bad = SeedBand(*(a.copy() for a in band.arrays))
            getattr(bad, name)[...] += 0.5
            with pytest.raises(NumericalHealthError):
                guards.check_seed_residual(pc.B, bad, config)

    def test_seed_residual_complex(self):
        pc = random_complex_pc(4, 3, seed=37)
        seeds = bsofi(pc)
        config = GuardConfig(residual_samples=4)
        residual = guards.check_seed_residual(pc.B, seeds, config)
        assert residual < 1e-12
        corrupted = seeds.copy()
        corrupted[0, 0] += 0.5
        with pytest.raises(NumericalHealthError) as err:
            guards.check_seed_residual(pc.B, corrupted, config)
        assert err.value.check == "residual"
