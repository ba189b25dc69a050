"""Exact Hubbard block inverses and the lock-step diagonal walks.

A Hubbard matrix carries ``B_l^{-1}`` in closed form
(:class:`~repro.hubbard.matrix.SliceInverses`); the FULL_DIAGONAL and
SUBDIAGONAL walks of :func:`~repro.core.wrap.wrap` apply it (or an LU
inverse, for any other matrix) as batched gemms.  Both must agree with
the per-block adjacency chain and with the Eq. (3) oracle.
"""

import importlib
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.bench.workloads import VALIDATION, make_hubbard
from repro.core.adjacency import AdjacencyOps
from repro.core.bsofi import bsofi
from repro.core.cls import cls
from repro.core.greens_explicit import greens_block
from repro.core.patterns import Pattern, Selection
from repro.core.pcyclic import BlockPCyclic, random_pcyclic, torus_index
from repro.core.wrap import _up_down_steps, wrap
from repro.hubbard.hs_field import HSField
from repro.hubbard.lattice import RectangularLattice
from repro.hubbard.matrix import HubbardModel
from repro.spectral.resolvent import (
    ResolventFactor,
    shift_scale,
    shifted_pcyclic,
)
from repro.telemetry import FlopTracer

pipeline = importlib.import_module("repro.core.pipeline")
resolvent = importlib.import_module("repro.spectral.resolvent")


def _hubbard(L=12, U=4.0, mu=0.0, sigma=+1, seed=0, beta=2.0):
    model = HubbardModel(RectangularLattice(2, 3), L=L, U=U, beta=beta, mu=mu)
    field = HSField.random(L, model.N, np.random.default_rng(seed))
    return model.build_matrix(field, sigma), model, field


class TestSliceInverses:
    @pytest.mark.parametrize("sigma", [+1, -1])
    @pytest.mark.parametrize("U,mu", [(4.0, 0.0), (4.0, 0.7), (-3.0, -0.4)])
    def test_inverse_times_block_is_identity(self, sigma, U, mu):
        pc, _, _ = _hubbard(U=U, mu=mu, sigma=sigma)
        eye = np.eye(pc.N)
        for i in range(1, pc.L + 1):
            np.testing.assert_allclose(
                pc.inverse(i) @ pc.block(i), eye, rtol=0, atol=1e-13
            )

    def test_torus_wrapped_index(self):
        pc, _, _ = _hubbard()
        np.testing.assert_array_equal(pc.inverse(0), pc.inverse(pc.L))
        np.testing.assert_array_equal(pc.inverse(pc.L + 1), pc.inverse(1))

    @pytest.mark.parametrize("sigma", [+1, -1])
    def test_broadcast_assembly_is_bitwise_slice_matrix(self, sigma):
        for mu in (0.0, 0.3, np.linspace(-0.5, 0.5, 6)):
            pc, model, field = _hubbard(mu=mu, sigma=sigma)
            for l in range(pc.L):
                np.testing.assert_array_equal(
                    pc.block(l + 1), model.slice_matrix(field.slice(l), sigma)
                )

    def test_slice_matrix_inv_is_the_provider(self):
        pc, model, field = _hubbard(mu=0.2)
        for l in range(pc.L):
            np.testing.assert_array_equal(
                model.slice_matrix_inv(field.slice(l), +1), pc.inverse(l + 1)
            )

    def test_pickle_round_trip(self):
        pc, _, _ = _hubbard()
        back = pickle.loads(pickle.dumps(pc))
        np.testing.assert_array_equal(back.B, pc.B)
        for i in (1, 5, pc.L):
            np.testing.assert_array_equal(back.inverse(i), pc.inverse(i))

    def test_not_part_of_equality_or_repr(self):
        pc, _, _ = _hubbard()
        bare = BlockPCyclic(pc.B)
        assert bare == pc
        assert repr(bare) == repr(pc)

    def test_provider_less_inverse_formed_by_lu(self):
        pc, _, _ = _hubbard()
        bare = BlockPCyclic(pc.B)
        N = pc.N
        for i in (0, 1, 5, pc.L):
            with FlopTracer() as tr:
                formed = bare.inverse(i)
            np.testing.assert_allclose(formed, pc.inverse(i), rtol=0,
                                       atol=1e-12)
            # kr.inverse: the LU (2/3 N^3) and getri (4/3 N^3).
            assert tr.total_flops == pytest.approx(2.0 * N**3)


class TestDerivedMatricesCarryNoInverse:
    def test_cls_and_shift(self):
        pc, _, _ = _hubbard()
        assert pc.inverses is not None
        assert cls(pc, 4, 1, num_threads=1).inverses is None
        assert shifted_pcyclic(pc, 0.3 + 0.1j)[0].inverses is None

    def test_resolvent_shift_reads_scaled_inverses(self):
        """A shift wraps through ``s B_i`` and ``B_i^{-1} / s`` read off
        the unshifted matrix: no complex copy of the chain is built."""
        L = 16  # N = 36: the copy (330 KB) dwarfs interpreter noise
        model = HubbardModel(RectangularLattice(6, 6), L=L, U=4.0, beta=2.0)
        field = HSField.random(L, model.N, np.random.default_rng(0))
        pc = model.build_matrix(field, +1)
        ResolventFactor(pc, 4, Pattern.FULL_DIAGONAL)  # warm caches, imports
        tracemalloc.start()
        try:
            rf = ResolventFactor(pc, 4, Pattern.FULL_DIAGONAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pc.L * pc.N**2 * np.dtype(np.complex128).itemsize
        chain = resolvent._ScaledChain(rf._ops, shift_scale(0.4 + 0.2j)[1])
        eye = np.eye(pc.N)
        for i in range(1, pc.L + 1):
            prod = chain.inverse(i) @ chain.block(i)
            assert prod.dtype == np.complex128
            np.testing.assert_allclose(prod, eye, rtol=0, atol=1e-12)

    def test_chaos_corrupted_chain(self, monkeypatch):
        pc, _, _ = _hubbard()
        seen = []
        real = pipeline.bsofi_seeds

        def spy(reduced, pattern, t=1.0):
            seen.append(reduced.inverses)
            return real(reduced, pattern, t)

        monkeypatch.setattr(pipeline._chaos, "is_active", lambda: True)
        monkeypatch.setattr(pipeline._chaos, "corrupt_array",
                            lambda site, arr: arr.copy())
        monkeypatch.setattr(pipeline, "bsofi_seeds", spy)
        sel = Selection(Pattern.DIAGONAL, L=pc.L, c=4, q=0)
        pipeline.run_stages(pc, sel)
        assert seen == [None]


# ----------------------------------------------------------------------
# lock-step diagonal walks
# ----------------------------------------------------------------------

def _chain(pc, seeds, sel):
    """FULL_DIAGONAL / SUBDIAGONAL one move at a time through
    :class:`AdjacencyOps` (``up_left`` / ``down_right`` / ``right``)."""
    ops = AdjacencyOps(pc)
    L = pc.L
    up, down = _up_down_steps(sel.c)
    out = {}
    for i, k in enumerate(sel.seeds):
        seed = seeds[i, i]
        if sel.pattern is Pattern.SUBDIAGONAL:
            if k != L:
                out[(k, k + 1)] = ops.right(seed, k, k)
            continue
        out[(k, k)] = seed
        for steps, move, d in ((up, ops.up_left, -1), (down, ops.down_right, 1)):
            g, kk = seed, k
            for _ in range(steps):
                g = move(g, kk, kk)
                kk = torus_index(kk + d, L)
                out[(kk, kk)] = g
    return out


def _with_inverses(pc):
    """``pc`` with exact inverses supplied by an explicit table."""
    table = np.linalg.inv(pc.B)
    return BlockPCyclic(pc.B, inverses=lambda i: table[i - 1].copy())


def _matrices():
    """(name, pc): real and complex, with and without exact inverses."""
    model = HubbardModel(RectangularLattice(2, 2), L=12, U=4.0, beta=2.0)
    hub = model.build_matrix(
        HSField.random(12, model.N, np.random.default_rng(12)), +1
    )
    rnd = random_pcyclic(12, 3, np.random.default_rng(7), scale=0.65)
    rng = np.random.default_rng(8)
    cplx = BlockPCyclic(
        (rng.standard_normal((12, 3, 3)) + 1j * rng.standard_normal((12, 3, 3)))
        * (0.65 / np.sqrt(6))
    )
    return [
        ("hubbard", hub),
        ("hubbard-lu", BlockPCyclic(hub.B)),
        ("random-lu", rnd),
        ("random-exact", _with_inverses(rnd)),
        ("complex-lu", cplx),
        ("complex-exact", _with_inverses(cplx)),
    ]


MATRICES = _matrices()


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _walks(pc, pattern, c):
    """``(got, chain)`` block dicts for every ``q``, keyed ``(q, k, l)``."""
    got, chain = {}, {}
    for q in range(c):
        sel = Selection(pattern, L=pc.L, c=c, q=q)
        seeds = bsofi(cls(pc, c, q, num_threads=1))
        out = wrap(pc, seeds, sel)
        ref = _chain(pc, seeds, sel)
        assert sorted(out) == sorted(ref)
        for kl, blk in ref.items():
            got[(q, *kl)], chain[(q, *kl)] = out[kl], blk
    return got, chain


@pytest.mark.parametrize("name,pc", MATRICES, ids=[m[0] for m in MATRICES])
@pytest.mark.parametrize("pattern", [Pattern.FULL_DIAGONAL, Pattern.SUBDIAGONAL])
@pytest.mark.parametrize("c", [3, 4, 6])
def test_lock_step_matches_chain_and_oracle(name, pc, pattern, c):
    """Every q, so walks start on, end on and cross the seam.  Eq. (3)
    itself loses digits on some random chains (up to ~4e-11 here, as
    much as the chain); there the walk must stay within 10x of the
    chain's own distance from it."""
    assert pc.dtype == (np.complex128 if "complex" in name else np.float64)
    got, chain = _walks(pc, pattern, c)
    for (q, k, l), blk in chain.items():
        oracle = greens_block(pc, k, l)
        assert _rel(got[(q, k, l)], blk) < 1e-12, (q, k, l)
        bound = 1e-12 if name.startswith("hubbard") else max(
            1e-12, 10 * _rel(blk, oracle))
        assert _rel(got[(q, k, l)], oracle) < bound, (q, k, l)


@pytest.mark.parametrize("name,pc", MATRICES, ids=[m[0] for m in MATRICES])
def test_lock_step_single_seed_tracks_the_chain(name, pc):
    """c = L: one seed whose walks run L/2 moves deep across the seam.
    Both walks lose digits there (up to ~1e-11 against Eq. (3)); the
    lock-step walk stays within 1e-12 of the oracle or of 10x the
    chain's own distance from it."""
    got, chain = _walks(pc, Pattern.FULL_DIAGONAL, pc.L)
    for (q, k, l), blk in chain.items():
        oracle = greens_block(pc, k, l)
        assert _rel(got[(q, k, l)], oracle) <= 10 * _rel(blk, oracle) + 1e-12


def test_paper_scale_blocks_match_oracle():
    """Sec. V-A scale (N = 100, L = 64, c = 8, beta = 1, U = 2): every
    diagonal-pattern block, and a sample of COLUMNS / ROWS blocks,
    against Eq. (3)."""
    pc, _, _ = make_hubbard(VALIDATION, seed=3)
    c, q = VALIDATION.c, 5
    seeds = bsofi(cls(pc, c, q, num_threads=1))
    for pattern in (Pattern.FULL_DIAGONAL, Pattern.SUBDIAGONAL,
                    Pattern.COLUMNS, Pattern.ROWS):
        got = wrap(pc, seeds, Selection(pattern, L=pc.L, c=c, q=q))
        keys = list(got)[:: max(1, len(got) // 64)]
        for kl in keys:
            assert _rel(got[kl], greens_block(pc, *kl)) < 1e-12, (pattern, kl)


@pytest.mark.parametrize("exact", [True, False])
def test_spectral_full_diagonal_matches_dense_resolvent(exact):
    pc, _, _ = _hubbard(L=8)
    if not exact:
        pc = BlockPCyclic(pc.B)
    M = pc.to_dense()
    rf = ResolventFactor(pc, 4, Pattern.FULL_DIAGONAL, q=1)
    N, n = pc.N, M.shape[0]
    for z in (0.4 + 0.2j, -1.5 + 0.05j):
        blocks, rung = rf.solve_shift(z)
        assert rung == "factored"
        G = np.linalg.inv(z * np.eye(n) - M)
        for k in range(1, pc.L + 1):
            ref = G[(k - 1) * N:k * N, (k - 1) * N:k * N]
            assert _rel(blocks[(k, k)], ref) < 1e-10, (z, k)
