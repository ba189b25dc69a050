"""SPXX time-dependent measurement: maps, counts, and a brute-force oracle."""

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern, Selection
from repro.core.wrap import wrap
from repro.dqmc.spxx import SPXXResult, spxx, spxx_pairs, temporal_distance
from repro.hubbard import HSField, HubbardModel, RectangularLattice

L, C, Q = 8, 4, 1


class TestTemporalDistance:
    def test_definition(self):
        """T(k,l) = k-l for k>l, else k-l+L (Sec. IV)."""
        assert temporal_distance(5, 2, 8) == 3
        assert temporal_distance(2, 5, 8) == 5
        assert temporal_distance(4, 4, 8) == 0

    def test_range(self):
        for k in range(1, 9):
            for l in range(1, 9):
                assert 0 <= temporal_distance(k, l, 8) < 8


class TestSpxxPairs:
    def test_counts(self):
        pairs = spxx_pairs([3, 7], 8)
        assert len(pairs) == 16  # b seeds x L columns

    def test_c_tau_uniform_for_full_rows(self):
        """Each row contributes one pair per tau; C(tau) = b everywhere."""
        pairs = spxx_pairs([3, 7], 8)
        c_tau = np.zeros(8, int)
        for _, _, tau in pairs:
            c_tau[tau] += 1
        np.testing.assert_array_equal(c_tau, 2)


@pytest.fixture(scope="module")
def greens_setup():
    model = HubbardModel(RectangularLattice(2, 2), L=L, U=4.0, beta=2.0)
    field = HSField.random(L, 4, np.random.default_rng(17))
    bundles = {}
    for sigma in (+1, -1):
        pc = model.build_matrix(field, sigma)
        res = fsi(pc, C, pattern=Pattern.ROWS, q=Q, num_threads=1)
        cols = wrap(
            pc,
            res.seeds,
            Selection(Pattern.COLUMNS, L=L, c=C, q=Q),
            num_threads=1,
        )
        bundles[sigma] = (res.selected, cols, pc)
    return model, bundles


class TestSpxxAccumulation:
    def test_result_shape(self, greens_setup):
        model, b = greens_setup
        r = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice)
        assert isinstance(r, SPXXResult)
        assert r.values.shape == (L, model.lattice.d_max)
        assert r.L == L and r.d_max == model.lattice.d_max

    def test_c_tau_counts(self, greens_setup):
        model, b = greens_setup
        r = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice)
        np.testing.assert_array_equal(r.c_tau, L // C)

    def test_threaded_matches_serial(self, greens_setup):
        model, b = greens_setup
        r1 = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice, num_threads=1)
        r4 = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice, num_threads=4)
        np.testing.assert_allclose(r1.values, r4.values, atol=1e-13)

    def test_against_brute_force(self, greens_setup):
        """Recompute from the full dense inverses with explicit loops."""
        model, b = greens_setup
        r = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice)
        N = 4
        G = {
            s: np.linalg.inv(b[s][2].to_dense()) for s in (+1, -1)
        }

        def blk(s, k, l):
            return G[s][(k - 1) * N : k * N, (l - 1) * N : l * N]

        D, radii = model.lattice.distance_classes
        seeds = Selection(Pattern.ROWS, L=L, c=C, q=Q).seeds
        expected = np.zeros((L, len(radii)))
        counts = np.zeros(L)
        class_sizes = np.bincount(D.ravel(), minlength=len(radii))
        for k in seeds:
            for l in range(1, L + 1):
                tau = temporal_distance(k, l, L)
                counts[tau] += 1
                up_kl, dn_lk = blk(+1, k, l), blk(-1, l, k)
                dn_kl, up_lk = blk(-1, k, l), blk(+1, l, k)
                for i in range(N):
                    for j in range(N):
                        e = 0.5 * (
                            up_kl[i, j] * dn_lk[j, i]
                            + dn_kl[i, j] * up_lk[j, i]
                        )
                        expected[tau, D[i, j]] += e
        expected *= (2.0 / counts)[:, None]
        expected /= class_sizes[None, :]
        np.testing.assert_allclose(r.values, expected, atol=1e-10)

    def test_geometry_mismatch_rejected(self, greens_setup):
        model, b = greens_setup
        pc = b[1][2]
        res2 = fsi(pc, C, pattern=Pattern.ROWS, q=(Q + 1) % C, num_threads=1)
        cols2 = wrap(
            pc,
            res2.seeds,
            Selection(Pattern.COLUMNS, L=L, c=C, q=(Q + 1) % C),
            num_threads=1,
        )
        with pytest.raises(ValueError, match="geometries differ"):
            spxx(b[1][0], cols2, b[-1][0], b[-1][1], model.lattice)

    def test_structure_factor(self, greens_setup):
        model, b = greens_setup
        r = spxx(b[1][0], b[1][1], b[-1][0], b[-1][1], model.lattice)
        assert r.structure_factor().shape == (L,)
