"""Wrapping (Alg. 2): every pattern grown from seeds vs. the dense oracle."""

import math

import numpy as np
import pytest

from repro import telemetry
from repro.core.adjacency import AdjacencyOps
from repro.core.bsofi import bsofi
from repro.core.cls import cls
from repro.core.patterns import Pattern, SelectedInversion, Selection
from repro.core.pcyclic import random_pcyclic, torus_index
from repro.core.wrap import _up_down_steps, wrap, wrap_flops
from repro.hubbard.hs_field import HSField
from repro.telemetry import FlopTracer
from repro.service import ModelSpec

L, N, C = 12, 3, 4


@pytest.fixture(scope="module")
def setup():
    pc = random_pcyclic(L, N, np.random.default_rng(21), scale=0.65)
    G = np.linalg.inv(pc.to_dense())
    seeds_by_q = {}
    for q in range(C):
        seeds_by_q[q] = bsofi(cls(pc, C, q, num_threads=1))
    return pc, G, seeds_by_q


class TestUpDownSplit:
    @pytest.mark.parametrize(
        "c,expected", [(2, (1, 0)), (3, (1, 1)), (4, (2, 1)), (5, (2, 2)), (10, (5, 4))]
    )
    def test_split(self, c, expected):
        assert _up_down_steps(c) == expected

    def test_split_covers_window(self):
        for c in range(2, 20):
            up, down = _up_down_steps(c)
            assert up + down == c - 1
            assert abs(up - down) <= 1


@pytest.mark.parametrize("q", range(C))
@pytest.mark.parametrize(
    "pattern",
    [
        Pattern.DIAGONAL,
        Pattern.SUBDIAGONAL,
        Pattern.COLUMNS,
        Pattern.ROWS,
        Pattern.FULL_DIAGONAL,
    ],
)
class TestAllPatterns:
    def test_matches_dense(self, setup, pattern, q):
        pc, G, seeds_by_q = setup
        sel = Selection(pattern, L=L, c=C, q=q)
        out = wrap(pc, seeds_by_q[q], sel, num_threads=1)
        assert len(out) == sel.count()
        assert out.max_relative_error(G) < 1e-8

    def test_threaded_matches_serial(self, setup, pattern, q):
        # ``num_threads`` is accepted and ignored: the output is bitwise
        # that of a call without it.
        pc, _, seeds_by_q = setup
        sel = Selection(pattern, L=L, c=C, q=q)
        serial = wrap(pc, seeds_by_q[q], sel)
        given = wrap(pc, seeds_by_q[q], sel, num_threads=4)
        assert list(given) == list(serial)
        np.testing.assert_array_equal(given.data, serial.data)


class TestColumnsDetail:
    def test_every_row_present(self, setup):
        pc, _, seeds_by_q = setup
        sel = Selection(Pattern.COLUMNS, L=L, c=C, q=1)
        out = wrap(pc, seeds_by_q[1], sel, num_threads=1)
        for l in sel.seeds:
            for k in range(1, L + 1):
                assert (k, l) in out

    def test_column_accessor_stacks(self, setup):
        pc, G, seeds_by_q = setup
        sel = Selection(Pattern.COLUMNS, L=L, c=C, q=0)
        out = wrap(pc, seeds_by_q[0], sel, num_threads=1)
        col = out.column(sel.seeds[0])
        assert col.shape == (L, N, N)

    def test_error_radius_bounded(self, setup):
        """The split walk keeps every block within ~c/2 applications of a
        seed: worst error across the column stays near seed accuracy."""
        pc, G, seeds_by_q = setup
        sel = Selection(Pattern.COLUMNS, L=L, c=C, q=2)
        out = wrap(pc, seeds_by_q[2], sel, num_threads=1)
        assert out.max_relative_error(G) < 1e-9


class TestValidation:
    def test_wrong_seed_shape(self, setup):
        pc, _, seeds_by_q = setup
        sel = Selection(Pattern.COLUMNS, L=L, c=C, q=0)
        bad = seeds_by_q[0][:2, :2]
        with pytest.raises(ValueError, match="seed grid"):
            wrap(pc, bad, sel)

    def test_wrong_selection_L(self, setup):
        pc, _, seeds_by_q = setup
        sel = Selection(Pattern.COLUMNS, L=24, c=C, q=0)
        with pytest.raises(ValueError, match="selection L"):
            wrap(pc, seeds_by_q[0], sel)


class TestSubdiagonal:
    def test_q_zero_skips_L(self, setup):
        pc, _, seeds_by_q = setup
        sel = Selection(Pattern.SUBDIAGONAL, L=L, c=C, q=0)
        out = wrap(pc, seeds_by_q[0], sel, num_threads=1)
        assert len(out) == L // C - 1
        assert all(k != L for (k, _) in out)

    def test_q_nonzero_has_b_blocks(self, setup):
        pc, _, seeds_by_q = setup
        sel = Selection(Pattern.SUBDIAGONAL, L=L, c=C, q=1)
        out = wrap(pc, seeds_by_q[1], sel, num_threads=1)
        assert len(out) == L // C


class TestWrapFlops:
    def test_columns_formula(self):
        b = 100 // 10
        assert wrap_flops(100, 64, 10, Pattern.COLUMNS) == 3.0 * (
            b * 100 - b * b
        ) * 64**3

    def test_diagonal_free(self):
        assert wrap_flops(100, 64, 10, Pattern.DIAGONAL) == 0.0

    def test_rows_equals_columns(self):
        assert wrap_flops(48, 32, 6, Pattern.ROWS) == wrap_flops(
            48, 32, 6, Pattern.COLUMNS
        )

    def test_validates_c(self):
        with pytest.raises(ValueError):
            wrap_flops(10, 4, 3, Pattern.COLUMNS)


# ----------------------------------------------------------------------
# panel WRP against the per-block walk, and its call count
# ----------------------------------------------------------------------

def _walk_reference(pc, G_seeds, sel):
    """Alg. 2 one block at a time through :class:`AdjacencyOps` (the
    per-seed walk the panel formulation replaces)."""
    ops = AdjacencyOps(pc)
    L, c, q = pc.L, sel.c, sel.q
    up, down = _up_down_steps(c)
    out = {}
    for i, k in enumerate(sel.seeds):
        for j, l in enumerate(sel.seeds):
            seed = G_seeds[i, j]
            if sel.pattern is Pattern.DIAGONAL and i == j:
                out[(k, k)] = seed
            elif sel.pattern is Pattern.SUBDIAGONAL and i == j and k != L:
                out[(k, k + 1)] = ops.right(seed, k, k)
            elif sel.pattern is Pattern.FULL_DIAGONAL and i == j:
                out[(k, k)] = seed
                g, kk = seed, k
                for _ in range(up):
                    g = ops.up_left(g, kk, kk)
                    kk = torus_index(kk - 1, L)
                    out[(kk, kk)] = g
                g, kk = seed, k
                for _ in range(down):
                    g = ops.down_right(g, kk, kk)
                    kk = torus_index(kk + 1, L)
                    out[(kk, kk)] = g
            elif sel.pattern is Pattern.COLUMNS:
                out[(k, l)] = seed
                g, kk = seed, k
                for _ in range(up):
                    g = ops.up(g, kk, l)
                    kk = torus_index(kk - 1, L)
                    out[(kk, l)] = g
                g, kk = seed, k
                for _ in range(down):
                    g = ops.down(g, kk, l)
                    kk = torus_index(kk + 1, L)
                    out[(kk, l)] = g
            elif sel.pattern is Pattern.ROWS:
                out[(k, l)] = seed
                g, ll = seed, l
                for _ in range(up):
                    g = ops.left(g, k, ll)
                    ll = torus_index(ll - 1, L)
                    out[(k, ll)] = g
                g, ll = seed, l
                for _ in range(down):
                    g = ops.right(g, k, ll)
                    ll = torus_index(ll + 1, L)
                    out[(k, ll)] = g
    return out


#: (L, c): interior walks, c = L (one seed, every move crosses the seam
#: or the diagonal), c = 1 (no moves), odd c, and the L = 1 corner case.
GEOMETRIES = [(12, 4), (12, 3), (12, 12), (12, 1), (6, 2), (1, 1)]


def _hubbard(Lg: int):
    spec = ModelSpec(nx=2, ny=2, L=Lg, t=1.0, U=4.0, beta=2.0)
    field = HSField.random(Lg, spec.N, np.random.default_rng(Lg))
    return spec.build_model().build_matrix(field, +1)


def _panel_and_walk(pc, pattern, c, q):
    sel = Selection(pattern, L=pc.L, c=c, q=q)
    seeds = bsofi(cls(pc, c, q, num_threads=1))
    got = wrap(pc, seeds, sel, num_threads=1)
    ref = _walk_reference(pc, seeds, sel)
    assert sorted(got) == sorted(ref)
    return got, SelectedInversion(sel, ref)


@pytest.mark.parametrize("Lg,c", GEOMETRIES)
@pytest.mark.parametrize("pattern", list(Pattern))
def test_panel_wrap_matches_per_block_walk(Lg, c, pattern):
    """On Hubbard matrices (the moves' B blocks are well conditioned)
    the explicit-inverse panels agree with the LU walk to rounding."""
    pc = _hubbard(Lg)
    for q in range(c):
        got, ref = _panel_and_walk(pc, pattern, c, q)
        for kl, blk in ref.items():
            err = np.linalg.norm(got[kl] - blk) / np.linalg.norm(blk)
            assert err < 1e-12, (pattern, q, kl, err)


@pytest.mark.parametrize("Lg,c", GEOMETRIES)
@pytest.mark.parametrize("pattern", [Pattern.COLUMNS, Pattern.ROWS])
def test_panel_wrap_error_tracks_the_walk(Lg, c, pattern):
    """On random chains both walks lose digits (up to ~1e-10 against the
    dense inverse at c = L); the panels never lose many more."""
    pc = random_pcyclic(Lg, 3, np.random.default_rng(100 + Lg + c), scale=0.65)
    G = np.linalg.inv(pc.to_dense())
    for q in range(c):
        got, ref = _panel_and_walk(pc, pattern, c, q)
        walk_err = ref.max_relative_error(G)
        assert got.max_relative_error(G) <= 10 * walk_err + 1e-14, (q, walk_err)


@pytest.mark.parametrize("pattern", [Pattern.COLUMNS, Pattern.ROWS])
def test_panel_wrap_call_count_at_paper_geometry(pattern):
    """One gemm per panel step plus one (factor, solve) inverse per
    B^{-1} row: b(c-1) + 2 b ceil((c-1)/2), not b^2 (c-1) block moves."""
    Lp, c, q = 64, 8, 3
    b = Lp // c
    pc = random_pcyclic(Lp, 2, np.random.default_rng(5), scale=0.5)
    seeds = bsofi(cls(pc, c, q, num_threads=1))
    sel = Selection(pattern, L=Lp, c=c, q=q)
    with FlopTracer() as tracer, telemetry.stage("wrp"):
        wrap(pc, seeds, sel)
    assert tracer.calls("wrp") <= b * (c - 1) + 2 * b * math.ceil((c - 1) / 2)


def test_columns_and_rows_are_views_of_the_buffer(setup):
    pc, _, seeds_by_q = setup
    for pattern, get in ((Pattern.COLUMNS, "column"), (Pattern.ROWS, "row")):
        sel = Selection(pattern, L=L, c=C, q=1)
        out = wrap(pc, seeds_by_q[1], sel)
        panel = getattr(out, get)(sel.seeds[1])
        assert panel.base is out.data or np.shares_memory(panel, out.data)
        np.testing.assert_array_equal(
            panel[4], out[(5, sel.seeds[1])] if get == "column"
            else out[(sel.seeds[1], 5)]
        )
