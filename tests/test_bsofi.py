"""BSOFI structured orthogonal inversion: factors, full inverse, band."""

import numpy as np
import pytest

from repro.core.bsofi import (
    SeedBand,
    bsofi,
    bsofi_band,
    bsofi_band_flops,
    bsofi_flops,
    bsofi_qr,
    bsofi_qr_flops,
    bsofi_seeds,
)
from repro.core.cls import cls
from repro.core.fsi import fsi
from repro.core.greens_explicit import greens_block
from repro.core.patterns import Pattern, Selection
from repro.core.pcyclic import BlockPCyclic, random_pcyclic
from repro.hubbard import HSField, HubbardModel, RectangularLattice
from repro.telemetry import FlopTracer


def stitch(G):
    b = G.shape[0]
    return np.block([[G[i, j] for j in range(b)] for i in range(b)])


class TestFactorisation:
    @pytest.mark.parametrize("b,N", [(2, 3), (3, 4), (4, 2), (7, 5)])
    def test_qr_reproduces_m(self, b, N):
        pc = random_pcyclic(b, N, np.random.default_rng(b * 10 + N), scale=0.8)
        f = bsofi_qr(pc)
        np.testing.assert_allclose(
            f.to_dense_q() @ f.to_dense_r(), pc.to_dense(), atol=1e-12
        )

    @pytest.mark.parametrize("b,N", [(2, 3), (4, 3), (6, 2)])
    def test_q_is_orthogonal(self, b, N):
        pc = random_pcyclic(b, N, np.random.default_rng(b), scale=0.8)
        Q = bsofi_qr(pc).to_dense_q()
        np.testing.assert_allclose(Q.T @ Q, np.eye(b * N), atol=1e-12)

    def test_r_diagonal_blocks_triangular(self):
        pc = random_pcyclic(5, 4, np.random.default_rng(1), scale=0.8)
        f = bsofi_qr(pc)
        for i in range(5):
            lower = np.tril(f.Rd[i], k=-1)
            np.testing.assert_allclose(lower, 0.0, atol=1e-14)

    def test_r_structure_sparsity(self):
        """R has only diagonal, superdiagonal and last-column blocks."""
        b, N = 5, 3
        pc = random_pcyclic(b, N, np.random.default_rng(2), scale=0.8)
        R = bsofi_qr(pc).to_dense_r()
        for i in range(b):
            for j in range(b):
                if j in (i, i + 1, b - 1) and j >= i:
                    continue
                blk = R[i * N : (i + 1) * N, j * N : (j + 1) * N]
                np.testing.assert_allclose(blk, 0.0, atol=1e-14)

    def test_rejects_single_block(self):
        pc = random_pcyclic(1, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2"):
            bsofi_qr(pc)

    def test_factor_shapes(self):
        b, N = 6, 3
        f = bsofi_qr(random_pcyclic(b, N, np.random.default_rng(0), scale=0.8))
        assert f.Rd.shape == (b, N, N)
        assert f.Ru.shape == (b - 1, N, N)
        assert f.Rc.shape == (b - 2, N, N)
        assert f.Q.shape == (b - 1, 2 * N, 2 * N)
        assert f.Qf.shape == (N, N)
        assert f.b == b and f.N == N

    def test_nbytes_copies_nothing(self):
        """``nbytes`` sums the factors' sizes without copying them."""
        import tracemalloc

        f = bsofi_qr(random_pcyclic(8, 20, np.random.default_rng(0), scale=0.8))
        arrays = (f.Rd, f.Ru, f.Rc, f.Q, f.Qf)
        assert sum(a.nbytes for a in arrays) > 100_000
        tracemalloc.start()
        try:
            total = f.nbytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == sum(a.nbytes for a in arrays)
        assert peak < 1024


class TestInverse:
    @pytest.mark.parametrize("b,N", [(1, 4), (2, 3), (3, 5), (5, 4), (8, 3)])
    def test_matches_dense_inverse(self, b, N):
        pc = random_pcyclic(b, N, np.random.default_rng(b + N), scale=0.7)
        G = bsofi(pc)
        np.testing.assert_allclose(
            stitch(G), np.linalg.inv(pc.to_dense()), atol=1e-10
        )

    def test_hubbard_matrix(self, hubbard_pc):
        G = bsofi(hubbard_pc)
        np.testing.assert_allclose(
            stitch(G), np.linalg.inv(hubbard_pc.to_dense()), atol=1e-9
        )

    def test_residual_mg_is_identity(self):
        pc = random_pcyclic(4, 6, np.random.default_rng(9), scale=0.7)
        G = stitch(bsofi(pc))
        np.testing.assert_allclose(
            pc.to_dense() @ G, np.eye(24), atol=1e-11
        )

    def test_output_shape(self):
        pc = random_pcyclic(3, 4, np.random.default_rng(0), scale=0.5)
        assert bsofi(pc).shape == (3, 3, 4, 4)


class TestStability:
    def test_graded_blocks_no_blowup(self):
        """Blocks with widely spread singular values (what CLS produces at
        low temperature) — the orthogonal factorisation must stay accurate
        when a naive LU of the *product form* would not."""
        rng = np.random.default_rng(4)
        b, N = 4, 6
        B = np.empty((b, N, N))
        for i in range(b):
            U, _ = np.linalg.qr(rng.standard_normal((N, N)))
            V, _ = np.linalg.qr(rng.standard_normal((N, N)))
            s = np.logspace(3, -3, N)  # condition 1e6 per block
            B[i] = (U * s) @ V.T
        pc = BlockPCyclic(B)
        G = stitch(bsofi(pc))
        resid = np.abs(pc.to_dense() @ G - np.eye(b * N)).max()
        assert resid < 1e-8

    def test_near_singular_diagonal_survives(self):
        """The final diagonal X_b may be ill-conditioned; QR handles it."""
        rng = np.random.default_rng(5)
        pc = random_pcyclic(3, 5, rng, scale=0.99)
        G = stitch(bsofi(pc))
        resid = np.abs(pc.to_dense() @ G - np.eye(15)).max()
        assert resid < 1e-9


class TestFlops:
    def test_formula(self):
        assert bsofi_flops(10, 100) == 7.0 * 100 * 100**3

    def test_formula_rejects_bad_b(self):
        with pytest.raises(ValueError):
            bsofi_flops(0, 10)

    def test_measured_scales_quadratically_in_b(self):
        rng = np.random.default_rng(0)
        counts = {}
        for b in (4, 8):
            pc = random_pcyclic(b, 8, rng, scale=0.5)
            with FlopTracer() as tr:
                bsofi(pc)
            counts[b] = tr.total_flops
        ratio = counts[8] / counts[4]
        # 7 b^2 N^3 dominant term: doubling b should ~4x the flops.
        assert 2.5 < ratio < 5.5


def complex_pcyclic(b, N, rng, scale=0.8):
    B = rng.standard_normal((b, N, N)) + 1j * rng.standard_normal((b, N, N))
    return BlockPCyclic(B * (scale / np.sqrt(2 * N)))


def band_error(band: SeedBand, ref: SeedBand) -> float:
    """Worst relative error over the diagonal, super-diagonal and corner."""
    return max(
        np.linalg.norm(x - y) / np.linalg.norm(y)
        for got, want in zip(band.arrays, ref.arrays)
        for x, y in zip(got.reshape(-1, *got.shape[-2:]),
                        want.reshape(-1, *want.shape[-2:]))
    )


def bsofi_residual(B: np.ndarray, band: SeedBand) -> float:
    """Worst relative ``(M~ G~ - I)_{kk}`` over every block row."""
    worst = 0.0
    for k in range(band.b):
        if k == 0:
            prod = B[0] @ band.corner
            R = band.diag[0] + prod
        else:
            prod = B[k] @ band.upper[k - 1]
            R = band.diag[k] - prod
        R = R - np.eye(B.shape[1])
        scale = np.linalg.norm(band.diag[k]) + np.linalg.norm(prod)
        worst = max(worst, np.linalg.norm(R) / scale)
    return worst


class TestBand:
    @pytest.mark.parametrize("b", [2, 3, 5, 8])
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_matches_grid(self, b, is_complex):
        rng = np.random.default_rng(100 + b)
        pc = (complex_pcyclic(b, 5, rng) if is_complex
              else random_pcyclic(b, 5, rng, scale=0.8))
        band = bsofi_band(bsofi_qr(pc))
        assert band.diag.dtype == pc.dtype
        assert band_error(band, SeedBand.of_grid(bsofi(pc))) < 1e-12

    def test_shapes(self):
        band = bsofi_band(bsofi_qr(random_pcyclic(
            6, 3, np.random.default_rng(0), scale=0.8)))
        assert band.diag.shape == (6, 3, 3)
        assert band.upper.shape == (5, 3, 3)
        assert band.corner.shape == (3, 3)
        assert band.b == 6

    @pytest.mark.parametrize("beta,U", [(1.0, 2.0), (4.0, 4.0), (8.0, 6.0)])
    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_against_explicit_oracle(self, beta, U, c):
        """Band and grid against Eq. (3) on Hubbard matrices: the band is
        no less accurate than the grid it replaces.  Two sites, so that
        ``I + B_L ... B_1`` stays invertible in double precision at
        ``beta = 8`` (on a 3x3 lattice Eq. (3) itself breaks down)."""
        L = 32
        model = HubbardModel(RectangularLattice(2, 1), L=L, U=U, beta=beta)
        field = HSField.random(L, model.N, np.random.default_rng(7))
        pc = model.build_matrix(field, +1)
        q = 1
        reduced = cls(pc, c, q, num_threads=1)
        seeds = Selection(Pattern.DIAGONAL, L=L, c=c, q=q).seeds
        b = len(seeds)
        oracle = SeedBand(
            diag=np.stack([greens_block(pc, k, k) for k in seeds]),
            upper=np.stack([greens_block(pc, seeds[i], seeds[i + 1])
                            for i in range(b - 1)]),
            corner=greens_block(pc, seeds[-1], seeds[0]),
        )
        band_err = band_error(bsofi_band(bsofi_qr(reduced)), oracle)
        grid_err = band_error(SeedBand.of_grid(bsofi(reduced)), oracle)
        assert band_err <= 10.0 * grid_err + 1e-14

    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_residual_at_low_temperature(self, c):
        """At beta = 8, U = 6 on 3x3 sites, c = 8 leaves a reduced matrix
        of condition ~1e13, so band and grid both carry forward errors
        near 1e-4; their identity residuals on the band are the same."""
        model = HubbardModel(RectangularLattice(3, 3), L=16, U=6.0, beta=8.0)
        field = HSField.random(16, model.N, np.random.default_rng(7))
        reduced = cls(model.build_matrix(field, +1), c, 1, num_threads=1)
        band = bsofi_residual(reduced.B, bsofi_band(bsofi_qr(reduced)))
        grid = bsofi_residual(reduced.B, SeedBand.of_grid(bsofi(reduced)))
        assert band <= 10.0 * grid + 1e-14

    @pytest.mark.parametrize(
        "pattern", [Pattern.DIAGONAL, Pattern.SUBDIAGONAL,
                    Pattern.FULL_DIAGONAL])
    def test_seeds_band_for_diagonal_patterns(self, pattern):
        pc = random_pcyclic(4, 3, np.random.default_rng(3), scale=0.7)
        seeds = bsofi_seeds(pc, pattern)
        assert not seeds.grid_ready
        np.testing.assert_allclose(seeds.band.diag, SeedBand.of_grid(bsofi(pc)).diag,
                                   atol=1e-13)

    @pytest.mark.parametrize("pattern", [Pattern.COLUMNS, Pattern.ROWS])
    def test_seeds_grid_for_columns_rows(self, pattern):
        pc = random_pcyclic(4, 3, np.random.default_rng(3), scale=0.7)
        seeds = bsofi_seeds(pc, pattern)
        assert seeds.grid_ready
        np.testing.assert_array_equal(seeds.grid, bsofi(pc))

    def test_lazy_grid_is_bsofi_and_cached(self):
        pc = random_pcyclic(5, 3, np.random.default_rng(4), scale=0.7)
        seeds = bsofi_seeds(pc, Pattern.DIAGONAL)
        held = seeds.nbytes
        with FlopTracer() as tr:
            grid = seeds.grid
            assert seeds.grid is grid
        assert tr.flops("bsofi.grid") > 0
        np.testing.assert_array_equal(grid, bsofi(pc))
        assert seeds.nbytes == grid.nbytes + seeds.band.nbytes != held

    def test_single_block(self):
        pc = random_pcyclic(1, 4, np.random.default_rng(0), scale=0.7)
        seeds = bsofi_seeds(pc, Pattern.DIAGONAL)
        np.testing.assert_array_equal(seeds.band.diag[0], bsofi(pc)[0, 0])
        np.testing.assert_array_equal(seeds.band.corner, bsofi(pc)[0, 0])


class TestLazySeedsInFSI:
    def test_diagonal_solve_seeds_equal_bsofi_on_read(self):
        pc = random_pcyclic(12, 4, np.random.default_rng(11), scale=0.6)
        with FlopTracer() as tr:
            res = fsi(pc, 3, pattern=Pattern.DIAGONAL, q=1, num_threads=1)
        assert not res.seed_set.grid_ready
        assert "bsofi.grid" not in tr.stages
        np.testing.assert_array_equal(
            res.seeds, bsofi(cls(pc, 3, 1, num_threads=1)))
        assert res.seed_set.grid_ready

    def test_stage_flops_are_the_band_count(self):
        pc = random_pcyclic(12, 4, np.random.default_rng(11), scale=0.6)
        with FlopTracer() as tr:
            fsi(pc, 3, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1)
        assert tr.flops("bsofi") == pytest.approx(bsofi_band_flops(4, 4))


class TestBandFlops:
    @pytest.mark.parametrize("b", [1, 2, 3, 6])
    def test_formula_is_the_counted_kernels(self, b):
        pc = random_pcyclic(b, 5, np.random.default_rng(b), scale=0.7)
        with FlopTracer() as tr:
            bsofi_seeds(pc, Pattern.DIAGONAL)
        assert tr.total_flops == pytest.approx(bsofi_band_flops(b, 5))

    @pytest.mark.parametrize("b", [2, 5])
    def test_qr_formula_is_the_counted_kernels(self, b):
        pc = random_pcyclic(b, 5, np.random.default_rng(b), scale=0.7)
        with FlopTracer() as tr:
            bsofi_qr(pc)
        assert tr.total_flops == pytest.approx(bsofi_qr_flops(b, 5))

    def test_band_is_linear_in_b(self):
        assert bsofi_band_flops(8, 100) < 0.55 * bsofi_flops(8, 100)
        step = bsofi_band_flops(9, 10) - bsofi_band_flops(8, 10)
        assert step == pytest.approx(bsofi_band_flops(5, 10)
                                     - bsofi_band_flops(4, 10))

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            bsofi_band_flops(0, 10)
        with pytest.raises(ValueError):
            bsofi_qr_flops(1, 10)
