"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjacency import AdjacencyOps
from repro.core.bsofi import SeedBand, bsofi, bsofi_band, bsofi_qr
from repro.core.cls import cls
from repro.core.patterns import Pattern, Selection, seed_indices
from repro.core.pcyclic import random_pcyclic, torus_index
from repro.dqmc.stats import jackknife
from repro.hubbard.hs_field import HSField
from repro.parallel.openmp import chunk_ranges

# Geometry strategy: (L, c) with c | L, both small.
geometries = st.integers(1, 6).flatmap(
    lambda b: st.integers(1, 6).map(lambda c: (b * c, c))
)


class TestTorusProperties:
    @given(st.integers(-100, 100), st.integers(1, 50))
    def test_result_in_range(self, k, L):
        assert 1 <= torus_index(k, L) <= L

    @given(st.integers(-100, 100), st.integers(1, 50))
    def test_idempotent(self, k, L):
        assert torus_index(torus_index(k, L), L) == torus_index(k, L)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20))
    def test_translation_consistency(self, k, d, L):
        """Shifting before or after wrapping commutes."""
        assert torus_index(k + d, L) == torus_index(torus_index(k, L) + d, L)


class TestChunkProperties:
    @given(st.integers(0, 500), st.integers(1, 32))
    def test_partition(self, n, parts):
        chunks = chunk_ranges(n, parts)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(n))

    @given(st.integers(0, 500), st.integers(1, 32))
    def test_balanced(self, n, parts):
        sizes = [len(c) for c in chunk_ranges(n, parts)]
        if sizes:
            assert max(sizes) - min(sizes) <= 1

    @given(st.integers(1, 500), st.integers(1, 32))
    def test_chunk_count(self, n, parts):
        assert len(chunk_ranges(n, parts)) == min(n, parts)


class TestSeedIndexProperties:
    @given(geometries, st.integers(0, 5))
    def test_indices_valid_and_spaced(self, geom, q_raw):
        L, c = geom
        q = q_raw % c
        idx = seed_indices(L, c, q)
        assert len(idx) == L // c
        assert all(1 <= k <= L for k in idx)
        assert all(b - a == c for a, b in zip(idx, idx[1:]))

    @given(geometries)
    def test_union_over_q_covers_everything(self, geom):
        L, c = geom
        union = set()
        for q in range(c):
            union.update(seed_indices(L, c, q))
        assert union == set(range(1, L + 1))

    @given(geometries, st.integers(0, 5))
    def test_counts_consistent_with_indices(self, geom, q_raw):
        L, c = geom
        q = q_raw % c
        for pattern in (Pattern.COLUMNS, Pattern.DIAGONAL):
            sel = Selection(pattern, L=L, c=c, q=q)
            assert sel.count() == len(sel.block_indices())

    @given(geometries, st.integers(0, 5))
    def test_subdiagonal_count_rule(self, geom, q_raw):
        L, c = geom
        q = q_raw % c
        sel = Selection(Pattern.SUBDIAGONAL, L=L, c=c, q=q)
        b = L // c
        expected = b - 1 if q == 0 else b
        assert sel.count() == len(sel.block_indices()) == expected


class TestJackknifeProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
    )
    def test_mean_matches_numpy(self, xs):
        mean, _ = jackknife(np.array(xs))
        assert mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        st.floats(-100, 100),
    )
    def test_shift_invariance_of_error(self, xs, shift):
        _, e0 = jackknife(np.array(xs))
        _, e1 = jackknife(np.array(xs) + shift)
        assert e1 == pytest.approx(e0, rel=1e-6, abs=1e-9)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        st.floats(0.1, 10),
    )
    def test_scale_equivariance_of_error(self, xs, scale):
        _, e0 = jackknife(np.array(xs))
        _, e1 = jackknife(scale * np.array(xs))
        assert e1 == pytest.approx(scale * e0, rel=1e-6, abs=1e-9)


class TestHSFieldProperties:
    @given(st.integers(1, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_buffer_roundtrip(self, L, N, seed):
        f = HSField.random(L, N, np.random.default_rng(seed))
        assert HSField.from_buffer(f.to_buffer(), L, N) == f

    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_double_flip_is_identity(self, L, N, seed, data):
        f = HSField.random(L, N, np.random.default_rng(seed))
        g = f.copy()
        l = data.draw(st.integers(0, L - 1))
        i = data.draw(st.integers(0, N - 1))
        g.flip(l, i)
        g.flip(l, i)
        assert f == g


class TestLinearAlgebraProperties:
    @given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_bsofi_inverts(self, L, N, seed):
        pc = random_pcyclic(L, N, np.random.default_rng(seed), scale=0.5)
        G = bsofi(pc)
        dense = np.block([[G[i, j] for j in range(L)] for i in range(L)])
        resid = np.abs(pc.to_dense() @ dense - np.eye(L * N)).max()
        assert resid < 1e-8

    @given(st.integers(2, 8), st.integers(1, 5), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_bsofi_band_is_the_grid_band(self, b, N, is_complex, seed):
        """The band recurrence reproduces the diagonal, super-diagonal and
        corner blocks of the full inverse, real or complex."""
        rng = np.random.default_rng(seed)
        pc = random_pcyclic(b, N, rng, scale=0.5)
        if is_complex:
            pc = type(pc)(pc.B + 0.5j * random_pcyclic(b, N, rng, scale=0.5).B)
        band = bsofi_band(bsofi_qr(pc))
        ref = SeedBand.of_grid(bsofi(pc))
        for got, want in zip(band.arrays, ref.arrays):
            assert got.dtype == want.dtype
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_cls_preserves_full_cycle(self, b, c, seed):
        """The product of clustered blocks equals the product of all
        original blocks (cyclic order preserved, q = 0)."""
        L = b * c
        pc = random_pcyclic(L, 3, np.random.default_rng(seed), scale=0.6)
        red = cls(pc, c, 0, num_threads=1)
        full = np.eye(3)
        for j in range(L, 0, -1):
            full = full @ pc.block(j)
        clustered = np.eye(3)
        for i in range(red.L, 0, -1):
            clustered = clustered @ red.block(i)
        np.testing.assert_allclose(clustered, full, atol=1e-10)

    @given(
        st.integers(2, 5),
        st.integers(0, 2**16),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_adjacency_roundtrips(self, L, seed, data):
        """down(up(G)) == G and left(right(G)) == G at any position."""
        N = 3
        pc = random_pcyclic(L, N, np.random.default_rng(seed), scale=0.5)
        Gd = np.linalg.inv(pc.to_dense())
        ops = AdjacencyOps(pc)
        k = data.draw(st.integers(1, L))
        l = data.draw(st.integers(1, L))
        g = Gd[(k - 1) * N : k * N, (l - 1) * N : l * N]
        km = torus_index(k - 1, L)
        np.testing.assert_allclose(
            ops.down(ops.up(g, k, l), km, l), g, atol=1e-7
        )
        lp = torus_index(l + 1, L)
        np.testing.assert_allclose(
            ops.left(ops.right(g, k, l), k, lp), g, atol=1e-7
        )


class TestMatvecProperty:
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_matvec_linear(self, L, N, seed):
        rng = np.random.default_rng(seed)
        pc = random_pcyclic(L, N, rng, scale=0.8)
        x = rng.standard_normal(L * N)
        y = rng.standard_normal(L * N)
        a, b = 2.5, -1.25
        np.testing.assert_allclose(
            pc.matvec(a * x + b * y),
            a * pc.matvec(x) + b * pc.matvec(y),
            atol=1e-9,
        )
