"""Sherman–Morrison/Woodbury delta updates (``repro.core.smw``).

Property-based coverage of the incremental serving core:

* :class:`FactorPairs` reproduces eager rank-1 accumulation exactly
  (entry reconstruction and the BLAS-3 flush);
* :func:`diag_flips` recovers exactly the flipped positions with the
  multiplicative Hubbard scale;
* ``PCyclicWoodbury.update_blocks`` after ``k`` random flips agrees
  with a *fresh* FSI solve of the flipped field to tight tolerance,
  across patterns, ranks and geometries (the tentpole property).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic, random_pcyclic
from repro.core.smw import (
    DeltaReport,
    FactorPairs,
    PCyclicWoodbury,
    RankOneFlip,
    diag_flips,
)
from repro.hubbard.hs_field import HSField
from repro.hubbard.lattice import RectangularLattice
from repro.hubbard.matrix import HubbardModel


def hubbard_setup(L: int = 8, nx: int = 2, ny: int = 3, seed: int = 0,
                  U: float = 3.0, beta: float = 2.0):
    model = HubbardModel(RectangularLattice(nx, ny), L=L, U=U, beta=beta)
    field = HSField.random(L, model.N, np.random.default_rng(seed))
    return model, field, model.build_matrix(field, +1)


def random_distinct_flips(rng, L: int, N: int, k: int) -> list[tuple[int, int]]:
    positions: set[tuple[int, int]] = set()
    while len(positions) < k:
        positions.add((int(rng.integers(L)), int(rng.integers(N))))
    return sorted(positions)


# ----------------------------------------------------------------------
# FactorPairs
# ----------------------------------------------------------------------

class TestFactorPairs:
    def test_matches_eager_rank1_updates(self):
        rng = np.random.default_rng(0)
        n, k = 7, 5
        A_eager = rng.standard_normal((n, n))
        pairs = FactorPairs(n, capacity=k)
        A_delayed = A_eager.copy()
        for _ in range(k):
            u = rng.standard_normal(n)
            w = rng.standard_normal(n)
            A_eager += np.outer(u, w)
            pairs.append(u, w)
            # reconstruction of current entries mid-accumulation
            i = int(rng.integers(n))
            assert pairs.diag_correction(i) == pytest.approx(
                A_eager[i, i] - A_delayed[i, i], rel=1e-12, abs=1e-12
            )
            np.testing.assert_allclose(
                A_delayed[:, i] + pairs.col_correction(i), A_eager[:, i],
                atol=1e-12,
            )
            np.testing.assert_allclose(
                A_delayed[i, :] + pairs.row_correction(i), A_eager[i, :],
                atol=1e-12,
            )
        assert pairs.is_full
        pairs.flush_into(A_delayed)
        np.testing.assert_allclose(A_delayed, A_eager, atol=1e-12)
        assert pairs.pending == 0

    def test_empty_corrections_are_zero(self):
        pairs = FactorPairs(4, capacity=2)
        assert pairs.diag_correction(1) == 0.0
        assert pairs.col_correction(1) == 0.0
        assert pairs.row_correction(1) == 0.0
        A = np.ones((4, 4))
        pairs.flush_into(A)  # no-op
        np.testing.assert_array_equal(A, np.ones((4, 4)))

    def test_append_past_capacity_raises(self):
        pairs = FactorPairs(3, capacity=1)
        pairs.append(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="full"):
            pairs.append(np.ones(3), np.ones(3))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FactorPairs(3, capacity=0)


# ----------------------------------------------------------------------
# diag_flips / the transpose solve
# ----------------------------------------------------------------------

class TestFlipDiff:
    def test_recovers_flipped_positions_and_scales(self):
        model, field, _ = hubbard_setup(seed=5)
        rng = np.random.default_rng(7)
        flipped = field.copy()
        positions = random_distinct_flips(rng, field.L, field.N, 4)
        for sl, site in positions:
            flipped.flip(sl, site)
        coupling = model.spin_factor(+1) * model.nu
        flips = diag_flips(field.h, flipped.h, coupling)
        assert sorted((f.slice_index - 1, f.site) for f in flips) == positions
        for f in flips:
            dh = float(
                flipped.h[f.slice_index - 1, f.site]
                - field.h[f.slice_index - 1, f.site]
            )
            assert f.scale == pytest.approx(np.exp(coupling * dh))

    def test_identical_fields_no_flips(self):
        _, field, _ = hubbard_setup()
        assert diag_flips(field.h, field.h, 0.5) == []

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes"):
            diag_flips(np.ones((2, 3)), np.ones((3, 2)), 0.5)

    def test_transpose_solve_solves_mt(self):
        pc = random_pcyclic(5, 3, np.random.default_rng(4), scale=0.4)
        wb = PCyclicWoodbury(pc)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal((pc.L, pc.N, 2))
        y = wb.solve_transpose(rhs)
        lhs = pc.to_dense().T @ y.reshape(pc.L * pc.N, -1)
        np.testing.assert_allclose(
            lhs, rhs.reshape(pc.L * pc.N, -1), atol=1e-10
        )


# ----------------------------------------------------------------------
# the tentpole property: k flips via Woodbury == fresh FSI solve
# ----------------------------------------------------------------------

class TestWoodburyAgainstFreshSolve:
    @pytest.mark.parametrize("pattern", [
        Pattern.DIAGONAL, Pattern.FULL_DIAGONAL, Pattern.COLUMNS,
        Pattern.SUBDIAGONAL,
    ])
    @pytest.mark.parametrize("k", [1, 3])
    def test_flips_match_fresh_fsi(self, pattern, k):
        model, field, pc = hubbard_setup(L=8, seed=11)
        base = fsi(pc, 4, pattern=pattern, q=1)
        blocks = dict(base.selected.items())

        rng = np.random.default_rng(100 * k + 17)
        flipped = field.copy()
        for sl, site in random_distinct_flips(rng, field.L, field.N, k):
            flipped.flip(sl, site)
        coupling = model.spin_factor(+1) * model.nu
        flips = diag_flips(field.h, flipped.h, coupling)
        assert len(flips) == k

        updated, report = PCyclicWoodbury(pc).update_blocks(blocks, flips)
        assert report.rank == k
        assert report.healthy(residual_tol=1e-8, cond_limit=1e10)

        fresh = fsi(model.build_matrix(flipped, +1), 4, pattern=pattern, q=1)
        assert sorted(updated) == sorted(dict(fresh.selected.items()))
        for kl, blk in updated.items():
            np.testing.assert_allclose(
                blk, fresh.selected[kl], atol=1e-10,
                err_msg=f"block {kl} diverged after {k} flips",
            )

    def test_degenerate_single_slice(self):
        """L=1: the corner block is the whole matrix (M = I + B_1)."""
        model, field, pc = hubbard_setup(L=1, seed=3)
        base = fsi(pc, 1, pattern=Pattern.FULL_DIAGONAL, q=0)
        flipped = field.copy()
        flipped.flip(0, 2)
        flips = diag_flips(
            field.h, flipped.h, model.spin_factor(+1) * model.nu
        )
        updated, report = PCyclicWoodbury(pc).update_blocks(
            dict(base.selected.items()), flips
        )
        fresh = fsi(
            model.build_matrix(flipped, +1), 1,
            pattern=Pattern.FULL_DIAGONAL, q=0,
        )
        np.testing.assert_allclose(
            updated[(1, 1)], fresh.selected[(1, 1)], atol=1e-10
        )
        assert report.rank == 1

    def test_spin_down_sector(self):
        """The sigma=-1 sector flips the sign of the HS coupling."""
        model, field, _ = hubbard_setup(L=6, seed=21)
        pc = model.build_matrix(field, -1)
        base = fsi(pc, 2, pattern=Pattern.DIAGONAL, q=0)
        flipped = field.copy()
        flipped.flip(4, 1)
        coupling = model.spin_factor(-1) * model.nu
        flips = diag_flips(field.h, flipped.h, coupling)
        updated, _ = PCyclicWoodbury(pc).update_blocks(
            dict(base.selected.items()), flips
        )
        fresh = fsi(
            model.build_matrix(flipped, -1), 2,
            pattern=Pattern.DIAGONAL, q=0,
        )
        for kl, blk in updated.items():
            np.testing.assert_allclose(blk, fresh.selected[kl], atol=1e-10)

    def test_empty_flip_list_returns_copies(self):
        _, _, pc = hubbard_setup(L=4)
        base = fsi(pc, 2, pattern=Pattern.DIAGONAL, q=0)
        blocks = dict(base.selected.items())
        updated, report = PCyclicWoodbury(pc).update_blocks(blocks, [])
        assert report.rank == 0
        for kl, blk in updated.items():
            assert blk is not blocks[kl]
            np.testing.assert_array_equal(blk, blocks[kl])

    def test_bad_site_raises(self):
        _, _, pc = hubbard_setup(L=4)
        wb = PCyclicWoodbury(pc)
        with pytest.raises(ValueError, match="site"):
            wb.update_blocks(
                {}, [RankOneFlip(slice_index=1, site=pc.N + 5, scale=2.0)]
            )

    def test_report_health_thresholds(self):
        healthy = DeltaReport(rank=1, solve_residual=1e-14,
                              capacitance_cond=10.0)
        assert healthy.healthy(1e-8, 1e10)
        assert not healthy.healthy(1e-16, 1e10)
        assert not DeltaReport(1, np.inf, 1.0).healthy(1e-8, 1e10)
        assert not DeltaReport(1, 1e-14, np.inf).healthy(1e-8, 1e10)

    def test_flops_are_recorded(self):
        from repro.telemetry import FlopTracer

        model, field, pc = hubbard_setup(L=4, seed=2)
        base = fsi(pc, 2, pattern=Pattern.FULL_DIAGONAL, q=0)
        flipped = field.copy()
        flipped.flip(1, 0)
        flips = diag_flips(
            field.h, flipped.h, model.spin_factor(+1) * model.nu
        )
        wb = PCyclicWoodbury(pc)
        with FlopTracer() as tracer:
            wb.update_blocks(dict(base.selected.items()), flips)
        assert tracer.total_flops > 0


# ----------------------------------------------------------------------
# the near-singular guard
# ----------------------------------------------------------------------

def test_near_singular_capacitance_reported():
    """A flip batch that (nearly) annihilates ``M'`` must surface as a
    huge capacitance condition number, not as silently wrong blocks."""
    L, N = 2, 3
    rng = np.random.default_rng(8)
    pc = BlockPCyclic(np.eye(N)[None] + 0.2 * rng.standard_normal((L, N, N)))
    base = fsi(pc, 1, pattern=Pattern.FULL_DIAGONAL, q=0)
    wb = PCyclicWoodbury(pc)
    # Scale chosen so C = 1 + v^T M^{-1} u ~ 0: solve for the scale that
    # zeroes the capacitance for this (slice, site).
    X = wb.solve(wb._factors([RankOneFlip(2, 0, 2.0)])[0])
    from repro.core.pcyclic import torus_index

    g = float(X[torus_index(1, L) - 1, 0, 0])  # gather as update_blocks does
    # C(delta) = 1 + delta * g / (2 - 1); pick scale with delta = -1/g'
    # where g' is the gather for unit delta.
    gather = g / (2.0 - 1.0)
    bad_scale = 1.0 - 1.0 / gather
    _, report = wb.update_blocks(
        dict(base.selected.items()), [RankOneFlip(2, 0, bad_scale)]
    )
    assert report.capacitance_cond > 1e8 or not np.isfinite(
        report.capacitance_cond
    )
    assert not report.healthy(residual_tol=1e-6, cond_limit=1e8)
