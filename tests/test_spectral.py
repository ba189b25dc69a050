"""Frequency-domain Green's functions: grids, resolvent sweeps, A(omega).

Acceptance scenarios of the spectral subsystem:

* the factor-once resolvent sweep matches the dense oracle
  ``inv(z I - M)`` to <= 1e-10 (globally normalised) across a 33-point
  grid, for several patterns, two broadenings, and both real and
  complex base chains;
* physics identities on a Hermitian operator: ``A(omega)`` Hermitian
  and PSD, per-orbital sum rule ``integral A_ii d omega ~ 1``, DOS
  integral ~ 1;
* momentum projection through the shared lattice Fourier transform
  (batched == per-slice, Parseval, real non-negative ``A(q, omega)``);
* the guard battery + fallback ladder serving a pathologically
  near-singular shift on a finer rung;
* the service workload: v3 fingerprints, chunked fan-out, stitched
  results matching a direct sweep, chunk-level cache hits, and one
  stitched trace per request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core.fsi import fsi, fsi_resilient
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic, random_pcyclic
from repro.dqmc.fourier import momentum_transform, structure_factor_grid
from repro.hubbard.hs_field import HSField
from repro.hubbard.lattice import RectangularLattice
from repro.resilience.guards import GuardConfig, NumericalHealthError
from repro.service import (
    GreensJob,
    GreensService,
    ModelSpec,
    ServiceConfig,
)
from repro.spectral import (
    OmegaGrid,
    ResolventFactor,
    SpectralResult,
    SpectralSpec,
    density_of_states,
    momentum_spectral_function,
    shift_scale,
    shifted_pcyclic,
    spectral_function,
    spectral_sweep_flops,
    sum_rule,
)


def random_complex_pc(L, N, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    B = (rng.standard_normal((L, N, N)) + 1j * rng.standard_normal((L, N, N)))
    return BlockPCyclic(B * (scale / np.sqrt(N)))


def dense_resolvent(pc: BlockPCyclic, z: complex) -> np.ndarray:
    dense = pc.to_dense()
    return np.linalg.inv(z * np.eye(dense.shape[0]) - dense)


def oracle_error(pc: BlockPCyclic, selected, z: complex) -> float:
    """Worst block error, normalised by the resolvent's global scale.

    Far-off-diagonal blocks of G(z) can be orders of magnitude below
    the dominant ones; absolute error relative to ``max |G|`` is the
    meaningful accuracy measure for a selected inversion.
    """
    ref = dense_resolvent(pc, z)
    N = pc.N
    scale = float(np.abs(ref).max())
    worst = 0.0
    for (k, l), blk in selected.items():
        refb = ref[(k - 1) * N:k * N, (l - 1) * N:l * N]
        worst = max(worst, float(np.abs(blk - refb).max()) / scale)
    return worst


# ----------------------------------------------------------------------
# grids + wire specs
# ----------------------------------------------------------------------

class TestOmegaGrid:
    def test_linear(self):
        g = OmegaGrid.linear(-2.0, 2.0, 5, 0.1)
        np.testing.assert_allclose(g.omegas, [-2, -1, 0, 1, 2])
        np.testing.assert_allclose(g.etas, 0.1)
        assert g.kind == "linear" and g.n == 5
        np.testing.assert_allclose(g.z, g.omegas + 0.1j)

    def test_logarithmic(self):
        g = OmegaGrid.logarithmic(0.01, 1.0, 3, 0.05)
        np.testing.assert_allclose(g.omegas, [0.01, 0.1, 1.0])
        assert g.kind == "log"

    def test_eta_schedule(self):
        g = OmegaGrid.linear(-1.0, 1.0, 3, [0.1, 0.2, 0.3])
        np.testing.assert_allclose(g.etas, [0.1, 0.2, 0.3])

    def test_single_point(self):
        assert OmegaGrid.linear(0.5, 0.5, 1, 0.1).n == 1

    @pytest.mark.parametrize("bad", [
        lambda: OmegaGrid.linear(2.0, -2.0, 5, 0.1),
        lambda: OmegaGrid.linear(-1.0, 1.0, 0, 0.1),
        lambda: OmegaGrid.linear(-np.inf, 1.0, 5, 0.1),
        lambda: OmegaGrid.linear(-1.0, 1.0, 5, 0.0),
        lambda: OmegaGrid.linear(-1.0, 1.0, 5, -0.1),
        lambda: OmegaGrid.linear(-1.0, 1.0, 5, np.nan),
        lambda: OmegaGrid.logarithmic(-1.0, 1.0, 5, 0.1),
        lambda: OmegaGrid.logarithmic(0.0, 1.0, 5, 0.1),
        lambda: OmegaGrid.linear(-1.0, 1.0, 3, [0.1, 0.2]),
        lambda: OmegaGrid(np.array([[1.0]]), np.array([[0.1]])),
        lambda: OmegaGrid(np.array([1.0]), np.array([0.1]), kind="spline"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_chunks_cover_in_order(self):
        g = OmegaGrid.linear(-3.0, 3.0, 10, [0.1 * (j + 1) for j in range(10)])
        chunks = g.chunks(4)
        assert [c.n for c in chunks] == [4, 4, 2]
        np.testing.assert_array_equal(
            np.concatenate([c.omegas for c in chunks]), g.omegas
        )
        np.testing.assert_array_equal(
            np.concatenate([c.etas for c in chunks]), g.etas
        )
        with pytest.raises(ValueError):
            g.chunks(0)


class TestSpectralSpec:
    def test_round_trip(self):
        g = OmegaGrid.linear(-2.0, 2.0, 7, [0.1 + 0.01 * j for j in range(7)])
        spec = SpectralSpec.from_grid(g)
        back = spec.grid()
        assert spec.n_omega == 7
        np.testing.assert_array_equal(back.omegas, g.omegas)
        np.testing.assert_array_equal(back.etas, g.etas)

    def test_equality_is_byte_equality(self):
        a = SpectralSpec.linear(-1.0, 1.0, 5, 0.1)
        b = SpectralSpec.from_grid(OmegaGrid.linear(-1.0, 1.0, 5, 0.1))
        # A "custom" grid with the same values is the same physics.
        c = SpectralSpec.from_grid(
            OmegaGrid(np.linspace(-1, 1, 5), np.full(5, 0.1))
        )
        assert a == b == c
        assert hash(a) == hash(c)
        assert a != SpectralSpec.linear(-1.0, 1.0, 5, 0.2)

    def test_encode_is_stable_and_distinct(self):
        a = SpectralSpec.linear(-1.0, 1.0, 5, 0.1)
        assert a.encode() == a.encode()
        assert a.encode() != SpectralSpec.linear(-1.0, 1.0, 5, 0.11).encode()
        assert a.encode() != SpectralSpec.linear(-1.0, 1.0, 6, 0.1).encode()

    def test_chunk_specs_concatenate_back(self):
        spec = SpectralSpec.linear(-3.0, 3.0, 9, 0.2)
        chunks = spec.chunk_specs(4)
        assert [c.n_omega for c in chunks] == [4, 4, 1]
        omegas = np.concatenate([c.grid().omegas for c in chunks])
        np.testing.assert_array_equal(omegas, spec.grid().omegas)

    @pytest.mark.parametrize("bad", [
        lambda: SpectralSpec(b"", b""),
        lambda: SpectralSpec(b"12345678", b""),
        lambda: SpectralSpec(b"123", b"123"),
        lambda: SpectralSpec(
            np.array([np.nan]).tobytes(), np.array([0.1]).tobytes()
        ),
        lambda: SpectralSpec(
            np.array([0.0]).tobytes(), np.array([-0.1]).tobytes()
        ),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            bad()


# ----------------------------------------------------------------------
# the resolvent engine vs the dense oracle
# ----------------------------------------------------------------------

class TestShiftScale:
    def test_factorisation_identity(self):
        pc = random_pcyclic(6, 4, np.random.default_rng(0), scale=0.7)
        z = 0.3 + 0.2j
        shifted, d = shifted_pcyclic(pc, z)
        np.testing.assert_allclose(
            d * shifted.to_dense(),
            z * np.eye(24) - pc.to_dense(),
            atol=1e-12,
        )

    def test_z_equal_one_rejected(self):
        with pytest.raises(ValueError):
            shift_scale(1.0)


GRID33 = OmegaGrid.linear(-3.0, 3.0, 33, 0.05)


class TestResolventOracle:
    @pytest.mark.parametrize("pattern", list(Pattern))
    @pytest.mark.parametrize("eta", [0.05, 0.6])
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    def test_sweep_matches_dense_oracle(self, pattern, eta, dtype):
        if dtype == "real":
            pc = random_pcyclic(8, 6, np.random.default_rng(3), scale=0.7)
        else:
            pc = random_complex_pc(8, 6, seed=3)
        grid = OmegaGrid.linear(-3.0, 3.0, 33, eta)
        factor = ResolventFactor(pc, c=4, pattern=pattern, q=1)
        swept = factor.sweep(grid)
        assert swept.rungs == ["factored"] * 33
        for j in (0, 9, 16, 25, 32):
            selected = {
                kl: swept.blocks[kl][j] for kl in swept.blocks
            }
            err = oracle_error(pc, selected, grid.z[j])
            assert err <= 1e-10, (pattern, eta, dtype, j, err)

    def test_sweep_matches_solve_shift(self):
        pc = random_pcyclic(8, 6, np.random.default_rng(5), scale=0.7)
        factor = ResolventFactor(pc, c=4, pattern=Pattern.COLUMNS, q=2)
        grid = OmegaGrid.linear(-1.0, 1.0, 5, 0.3)
        swept = factor.sweep(grid)
        for j, z in enumerate(grid.z):
            selected, rung = factor.solve_shift(z)
            assert rung == "factored"
            for kl, blk in selected.items():
                np.testing.assert_array_equal(swept.blocks[kl][j], blk)

    def test_factored_equals_naive_per_shift(self):
        """The shared factorisation is *algebraically* the same pipeline
        as refactoring the shifted chain per shift."""
        pc = random_pcyclic(8, 5, np.random.default_rng(11), scale=0.7)
        z = -0.7 + 0.2j
        factor = ResolventFactor(pc, c=4, pattern=Pattern.SUBDIAGONAL)
        fast, _ = factor.solve_shift(z)
        pc_z, d = shifted_pcyclic(pc, z)
        naive = fsi(pc_z, 4, pattern=Pattern.SUBDIAGONAL, q=0).selected
        for kl, blk in fast.items():
            np.testing.assert_allclose(
                blk, naive[kl] / d, rtol=0, atol=1e-12 * abs(1.0 / d)
            )

    @pytest.mark.parametrize("pattern", list(Pattern))
    @pytest.mark.parametrize("c", [24, 12, 8, 3])  # b = 1, 2, 3, 8
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    def test_phase_frame_matches_the_scaled_reduced_chain(
        self, pattern, c, dtype
    ):
        """Each shift's BSOFI runs on the unshifted reduced chain in the
        phase frame.  Its blocks match the same stages run on the
        materialised complex reduced chain ``s(z)^c R`` (complex
        panels), with ``theta = arg s(z)^c`` in each quadrant: to 1e-12
        of the block scale where WRP copies or walks the diagonal, and
        no less accurate against the dense resolvent where its walks
        amplify the seeds' rounding.  The seeds themselves are checked
        against the dense inverse in ``test_bsofi.py``."""
        from repro.core.pipeline import run_stages
        from repro.spectral.resolvent import _ScaledChain

        pc = (random_pcyclic(24, 4, np.random.default_rng(c), scale=0.7)
              if dtype == "real" else random_complex_pc(24, 4, seed=c))
        factor = ResolventFactor(pc, c=c, pattern=pattern, q=1)
        for theta in (0.4, 2.0, -2.5, -0.9):
            z = 1.0 - 1.0 / (0.8 * np.exp(1j * theta / c))
            d, s = shift_scale(z)
            assert np.angle(s**c) == pytest.approx(theta)
            fast, rung = factor.solve_shift(z)
            assert rung == "factored"
            complex_path, _, _ = run_stages(
                _ScaledChain(factor._ops, s), factor.selection,
                reduced=BlockPCyclic(factor._reduced.B * s**c),
                scale=1.0 / d,
            )
            if pattern in (Pattern.DIAGONAL, Pattern.FULL_DIAGONAL):
                scale = float(np.abs(complex_path.data).max())
                np.testing.assert_allclose(
                    fast.data, complex_path.data, rtol=0, atol=1e-12 * scale
                )
            assert oracle_error(pc, fast, z) <= (
                10.0 * oracle_error(pc, complex_path, z) + 1e-13
            )

    def test_degenerate_single_slice(self):
        pc = random_pcyclic(1, 5, np.random.default_rng(7), scale=0.6)
        factor = ResolventFactor(pc, c=1, pattern=Pattern.DIAGONAL)
        grid = OmegaGrid.linear(-2.0, 2.0, 9, 0.2)
        swept = factor.sweep(grid)
        for j in (0, 4, 8):
            selected = {kl: swept.blocks[kl][j] for kl in swept.blocks}
            assert oracle_error(pc, selected, grid.z[j]) <= 1e-12

    def test_c_equals_one(self):
        pc = random_pcyclic(6, 4, np.random.default_rng(9), scale=0.7)
        factor = ResolventFactor(pc, c=1, pattern=Pattern.FULL_DIAGONAL)
        z = 0.4 + 0.1j
        selected, rung = factor.solve_shift(z)
        assert rung == "factored"
        assert oracle_error(pc, selected, z) <= 1e-12

    def test_validation(self):
        pc = random_pcyclic(6, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ResolventFactor(pc, c=4)  # 4 does not divide 6
        with pytest.raises(ValueError):
            ResolventFactor(pc, c=3, q=3)

    def test_sweep_flops_amortise_cls(self):
        single = spectral_sweep_flops(64, 100, 8, Pattern.DIAGONAL, 1)
        many = spectral_sweep_flops(64, 100, 8, Pattern.DIAGONAL, 33)
        per_extra = (many - single) / 32
        from repro.core.cls import cls_flops
        assert per_extra < single  # CLS is paid once
        assert many == pytest.approx(
            cls_flops(64, 100, 8) + 33 * (single - cls_flops(64, 100, 8))
        )

    def test_result_accessors(self):
        pc = random_pcyclic(4, 3, np.random.default_rng(1), scale=0.7)
        factor = ResolventFactor(pc, c=2, pattern=Pattern.DIAGONAL)
        grid = OmegaGrid.linear(-1.0, 1.0, 3, 0.2)
        swept = factor.sweep(grid)
        assert isinstance(swept, SpectralResult)
        assert swept.n_omega == 3
        kl = next(iter(swept.blocks))
        assert swept.block(*kl).shape == (3, 3, 3)
        assert swept.block(*kl).dtype == np.complex128


# ----------------------------------------------------------------------
# spectral functions: physics identities on a Hermitian operator
# ----------------------------------------------------------------------

def hermitian_pc(N: int, seed: int) -> BlockPCyclic:
    """L=2 chain whose dense form is Hermitian: M = [[I, C], [C^H, I]].

    Normal form places ``+B_1`` in the corner and ``-B_2`` on the
    sub-diagonal, so ``B_1 = C`` and ``B_2 = -C^H`` give eigenvalues
    ``1 +- sigma_i(C)`` — a genuine spectrum for the physics tests.
    """
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    C *= 0.5 / np.linalg.norm(C, 2)
    return BlockPCyclic(np.stack([C, -C.conj().T]))


class TestSpectralFunctions:
    @pytest.fixture(scope="class")
    def hermitian_sweep(self):
        pc = hermitian_pc(6, seed=21)
        grid = OmegaGrid.linear(-9.0, 11.0, 801, 0.1)
        factor = ResolventFactor(pc, c=1, pattern=Pattern.FULL_DIAGONAL)
        return pc, grid, factor.sweep(grid)

    def test_spectral_function_hermitian_psd(self, hermitian_sweep):
        _, grid, swept = hermitian_sweep
        for k in (1, 2):
            A = spectral_function(swept.block(k, k))
            np.testing.assert_allclose(
                A, np.conjugate(np.swapaxes(A, -1, -2)), atol=1e-14
            )
            eigs = np.linalg.eigvalsh(A)
            assert eigs.min() >= -1e-10

    def test_sum_rule(self, hermitian_sweep):
        _, grid, swept = hermitian_sweep
        weights = np.concatenate([
            sum_rule(spectral_function(swept.block(k, k)), grid)
            for k in (1, 2)
        ])
        # Each orbital holds one state; the window truncates the
        # Lorentzian tails at the percent level.
        np.testing.assert_allclose(weights, 1.0, atol=0.02)

    def test_dos_integral(self, hermitian_sweep):
        _, grid, swept = hermitian_sweep
        A = spectral_function(swept.block(1, 1))
        rho = density_of_states(A)
        assert rho.min() >= -1e-12
        assert np.trapezoid(rho, grid.omegas) == pytest.approx(1.0, abs=0.02)

    def test_dos_peaks_at_eigenvalues(self, hermitian_sweep):
        pc, grid, swept = hermitian_sweep
        eigs = np.linalg.eigvalsh(pc.to_dense())
        A1 = spectral_function(swept.block(1, 1))
        A2 = spectral_function(swept.block(2, 2))
        rho = (density_of_states(A1) + density_of_states(A2)) / 2.0
        # Exact Lorentzian sum evaluated on the same grid.
        lorentz = (
            (grid.etas[:, None] / np.pi)
            / ((grid.omegas[:, None] - eigs[None, :]) ** 2
               + grid.etas[:, None] ** 2)
        ).sum(axis=1) / len(eigs)
        np.testing.assert_allclose(rho, lorentz, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            spectral_function(np.zeros((3, 4, 5)))
        with pytest.raises(ValueError):
            density_of_states(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            sum_rule(np.zeros((3, 4, 4)), OmegaGrid.linear(-1, 1, 5, 0.1))


# ----------------------------------------------------------------------
# momentum projection
# ----------------------------------------------------------------------

class TestMomentum:
    def test_batched_equals_per_slice(self):
        lattice = RectangularLattice(3, 2)
        rng = np.random.default_rng(2)
        C = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        momenta, batched = momentum_transform(C, lattice)
        assert batched.shape == (5, 6)
        for j in range(5):
            mj, vj = momentum_transform(C[j], lattice)
            np.testing.assert_array_equal(mj, momenta)
            np.testing.assert_allclose(batched[j], vj, atol=1e-13)

    def test_structure_factor_grid_unchanged(self):
        lattice = RectangularLattice(3, 3)
        rng = np.random.default_rng(4)
        C = rng.standard_normal((9, 9))
        C = (C + C.T) / 2.0
        momenta, S = structure_factor_grid(C, lattice)
        # Parseval: sum_q S(q) = tr C.
        assert S.sum() == pytest.approx(np.trace(C), rel=1e-12)

    def test_momentum_spectral_function(self):
        lattice = RectangularLattice(2, 2)
        pc = hermitian_pc(4, seed=8)
        grid = OmegaGrid.linear(-2.0, 4.0, 21, 0.2)
        swept = ResolventFactor(pc, c=1, pattern=Pattern.DIAGONAL).sweep(grid)
        A = spectral_function(swept.block(2, 2))
        momenta, Aq = momentum_spectral_function(A, lattice)
        assert momenta.shape == (4, 2) and Aq.shape == (21, 4)
        # Hermitian PSD A: every quadratic form is real non-negative.
        assert Aq.min() >= -1e-12
        # Parseval per frequency: sum_q A(q, w) = tr A(w).
        np.testing.assert_allclose(
            Aq.sum(axis=1), np.einsum("wii->w", A).real, atol=1e-12
        )


# ----------------------------------------------------------------------
# guards + the fallback ladder
# ----------------------------------------------------------------------

class TestSpectralResilience:
    def test_guarded_sweep_matches_unguarded(self):
        pc = random_pcyclic(8, 6, np.random.default_rng(13), scale=0.7)
        grid = OmegaGrid.linear(-2.0, 2.0, 7, 0.3)
        plain = ResolventFactor(pc, c=4, pattern=Pattern.COLUMNS).sweep(grid)
        guarded = ResolventFactor(
            pc, c=4, pattern=Pattern.COLUMNS, guards=GuardConfig()
        ).sweep(grid)
        assert guarded.rungs == ["factored"] * 7
        for kl in plain.blocks:
            np.testing.assert_array_equal(plain.blocks[kl], guarded.blocks[kl])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fallback_drill_near_singular_shift(self):
        """A shift pathologically close to z=1 overflows ``s(z)^c`` on
        the fast path; the ladder serves it on a finer rung, and the
        answer still matches the dense oracle."""
        telemetry.reset()
        try:
            pc = random_pcyclic(8, 6, np.random.default_rng(3), scale=0.7)
            factor = ResolventFactor(
                pc, c=4, pattern=Pattern.COLUMNS, q=1, guards=GuardConfig()
            )
            z = 1.0 + 1e-90j
            grid = OmegaGrid(np.array([1.0]), np.array([1e-90]))
            swept = factor.sweep(grid)
            (rung,) = swept.rungs
            assert rung != "factored"  # the fast path tripped
            assert rung == "c=2"  # ... and the first finer rung served
            selected = {kl: swept.blocks[kl][0] for kl in swept.blocks}
            assert oracle_error(pc, selected, z) <= 1e-10
            counts = {
                values[0]: child.value
                for values, child in telemetry.registry().counter(
                    "repro_spectral_shifts_total",
                    "Resolvent shifts solved, by serving rung",
                    labels=("rung",),
                ).samples()
            }
            assert counts.get("c=2") == 1.0
        finally:
            telemetry.reset()

    def test_non_finite_reduced_chain_goes_to_the_ladder(self):
        """Cluster products of ``B_i ~ 1e80`` overflow at c = 8: the
        factor's ``cls`` screen sends every shift to the ladder, as a
        condition trip does, and each agrees with ``fsi_resilient`` on
        the shifted chain."""
        rng = np.random.default_rng(0)
        pc = BlockPCyclic(rng.standard_normal((8, 4, 4)) * 1e80)
        factor = ResolventFactor(pc, 8, guards=GuardConfig())
        grid = OmegaGrid.linear(-1.0, 1.0, 3, 0.3)
        swept = factor.sweep(grid)
        for j, z in enumerate(grid.z):
            pc_z, d = shifted_pcyclic(pc, z)
            ref = fsi_resilient(pc_z, 8, Pattern.DIAGONAL, q=0,
                                guards=GuardConfig())
            assert ref.rung == "c=2"
            assert swept.rungs[j] == ref.rung
            np.testing.assert_allclose(
                swept.blocks.data[:, j], ref.selected.data / d,
                rtol=1e-12, atol=0,
            )

    def test_non_finite_input_still_raises(self):
        B = np.random.default_rng(0).standard_normal((8, 4, 4))
        B[3, 1, 2] = np.nan
        with pytest.raises(NumericalHealthError, match="at input"):
            ResolventFactor(BlockPCyclic(B), 8, guards=GuardConfig())

    def test_shift_rung_counter(self):
        telemetry.reset()
        try:
            pc = random_pcyclic(4, 3, np.random.default_rng(1), scale=0.7)
            factor = ResolventFactor(pc, c=2, guards=GuardConfig())
            factor.sweep(OmegaGrid.linear(-1.0, 1.0, 3, 0.4))
            counts = {
                values[0]: child.value
                for values, child in telemetry.registry().counter(
                    "repro_spectral_shifts_total",
                    "Resolvent shifts solved, by serving rung",
                    labels=("rung",),
                ).samples()
            }
            assert counts == {"factored": 3.0}
        finally:
            telemetry.reset()


# ----------------------------------------------------------------------
# service workload: fingerprints, fan-out, stitching, caching, tracing
# ----------------------------------------------------------------------

SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)


def make_spectral_job(seed: int, sspec: SpectralSpec | None,
                      pattern: Pattern = Pattern.DIAGONAL) -> GreensJob:
    field = HSField.random(SPEC.L, SPEC.N, np.random.default_rng(seed))
    return GreensJob.from_field(
        SPEC, field, c=4, pattern=pattern, q=1, spectral=sspec
    )


class TestSpectralJobs:
    def test_workload_discriminator(self):
        sspec = SpectralSpec.linear(-2.0, 2.0, 5, 0.1)
        equal_time = make_spectral_job(0, None)
        spectral = make_spectral_job(0, sspec)
        assert equal_time.workload == "equal_time"
        assert spectral.workload == "spectral"
        assert equal_time.fingerprint != spectral.fingerprint
        assert equal_time.compat_key != spectral.compat_key

    def test_grid_is_part_of_identity(self):
        a = make_spectral_job(0, SpectralSpec.linear(-2.0, 2.0, 5, 0.1))
        b = make_spectral_job(0, SpectralSpec.linear(-2.0, 2.0, 5, 0.2))
        c = make_spectral_job(0, SpectralSpec.linear(-2.0, 2.0, 6, 0.1))
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3
        same = make_spectral_job(0, SpectralSpec.linear(-2.0, 2.0, 5, 0.1))
        assert same == a and same.fingerprint == a.fingerprint

    def test_chunk_fingerprints_distinct(self):
        sspec = SpectralSpec.linear(-2.0, 2.0, 9, 0.1)
        parent = make_spectral_job(0, sspec)
        fps = set()
        import dataclasses
        for chunk in sspec.chunk_specs(4):
            fps.add(dataclasses.replace(parent, spectral=chunk).fingerprint)
        assert len(fps) == 3
        assert parent.fingerprint not in fps

    def test_spectral_type_checked(self):
        with pytest.raises(TypeError):
            make_spectral_job(0, "not a spec")  # type: ignore[arg-type]


class TestSpectralService:
    @pytest.fixture(scope="class")
    def svc(self):
        with GreensService(ServiceConfig(
            workers=2, spectral_chunk=4
        )) as service:
            yield service

    def test_fanned_out_sweep_matches_direct(self, svc):
        sspec = SpectralSpec.linear(-2.0, 2.0, 9, 0.2)
        job = make_spectral_job(7, sspec)
        result = svc.submit(job).result(timeout=120)
        assert result.rung == "spectral(9)"
        # Direct local sweep over the same chain.
        field = job.field()
        pc = SPEC.build_model().build_matrix(field, SPEC.sigma)
        swept = ResolventFactor(pc, c=4, pattern=Pattern.DIAGONAL, q=1).sweep(
            sspec.grid()
        )
        assert set(result.blocks) == set(swept.blocks)
        for kl, blk in result.blocks.items():
            assert blk.shape == (9, SPEC.N, SPEC.N)
            np.testing.assert_allclose(blk, swept.blocks[kl], atol=1e-8)

    def test_resubmit_hits_chunk_cache(self, svc):
        sspec = SpectralSpec.linear(-1.0, 1.0, 9, 0.3)
        job = make_spectral_job(8, sspec)
        first = svc.submit(job).result(timeout=120)
        hits_before = svc.stats()["cache"]["hits"]
        second = svc.submit(job).result(timeout=120)
        assert svc.stats()["cache"]["hits"] >= hits_before + 3
        for kl, blk in first.blocks.items():
            np.testing.assert_array_equal(blk, second.blocks[kl])

    def test_single_chunk_job_is_cached(self, svc):
        job = make_spectral_job(9, SpectralSpec.linear(-1.0, 1.0, 3, 0.3))
        svc.submit(job).result(timeout=120)
        again = svc.submit(job)
        again.result(timeout=120)
        assert again.cache_hit

    def test_spectral_metrics(self, svc):
        stats = svc.stats()["spectral"]
        assert stats["requests"] >= 1
        assert stats["chunks"] >= 3

    def test_overlapping_grid_reuses_chunks(self, svc):
        # Same leading chunk as a 9-point grid over the same window.
        base = SpectralSpec.linear(-2.0, 2.0, 9, 0.2)
        job9 = make_spectral_job(11, base)
        svc.submit(job9).result(timeout=120)
        lead = base.chunk_specs(4)[0]
        hits_before = svc.stats()["cache"]["hits"]
        again = svc.submit(make_spectral_job(11, lead))
        again.result(timeout=120)
        assert again.cache_hit
        assert svc.stats()["cache"]["hits"] == hits_before + 1

    def test_equal_time_jobs_unaffected(self, svc):
        job = make_spectral_job(10, None)
        result = svc.submit(job).result(timeout=120)
        assert result.rung == "direct"
        ref = fsi(
            SPEC.build_model().build_matrix(job.field(), SPEC.sigma),
            4, pattern=Pattern.DIAGONAL, q=1,
        ).selected
        for kl, blk in result.blocks.items():
            np.testing.assert_allclose(blk, ref[kl], atol=1e-10)


class TestSpectralTracing:
    def test_one_stitched_trace(self):
        telemetry.reset()
        try:
            telemetry.configure(sample_rate=1.0)
            job = make_spectral_job(3, SpectralSpec.linear(-2.0, 2.0, 9, 0.2))
            with GreensService(ServiceConfig(
                workers=2, spectral_chunk=4
            )) as svc:
                svc.submit(job).result(timeout=120)
            spans = telemetry.collector().drain()
            by_trace: dict[str, list] = {}
            for span in spans:
                by_trace.setdefault(span["trace_id"], []).append(span)
            assert len(by_trace) == 1
            names = {span["name"] for span in next(iter(by_trace.values()))}
            assert {
                "service.request", "service.spectral", "service.dispatch",
                "spectral.factor", "spectral.sweep", "worker.job",
            } <= names
            spectral_spans = [
                s for s in spans if s["name"] == "service.spectral"
            ]
            assert len(spectral_spans) == 1
            assert spectral_spans[0]["attributes"]["chunks"] == 3
        finally:
            telemetry.reset()
