"""Selection patterns S1-S4 and the SelectedInversion container."""

import numpy as np
import pytest

from repro.core.patterns import (
    Pattern,
    SelectedInversion,
    Selection,
    seed_indices,
)


class TestSeedIndices:
    def test_basic(self):
        assert seed_indices(12, 4, 0) == [4, 8, 12]
        assert seed_indices(12, 4, 1) == [3, 7, 11]
        assert seed_indices(12, 4, 3) == [1, 5, 9]

    def test_paper_example(self):
        # (L, c) = (100, 10): indices 10-q, 20-q, ..., 100-q.
        idx = seed_indices(100, 10, 3)
        assert len(idx) == 10
        assert idx[0] == 7 and idx[-1] == 97

    def test_all_indices_in_range(self):
        for q in range(8):
            idx = seed_indices(64, 8, q)
            assert all(1 <= k <= 64 for k in idx)

    def test_spacing_is_c(self):
        idx = seed_indices(20, 5, 2)
        assert all(b - a == 5 for a, b in zip(idx, idx[1:]))

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="divisor"):
            seed_indices(10, 3, 0)

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError, match="q="):
            seed_indices(12, 4, 4)


class TestSelection:
    def test_b_property(self):
        sel = Selection(Pattern.COLUMNS, L=100, c=10, q=0)
        assert sel.b == 10

    def test_counts_match_paper_table(self):
        """Sec. II-B: S1 -> b, S2 -> b or b-1, S3/S4 -> bL."""
        L, c = 100, 10
        b = 10
        assert Selection(Pattern.DIAGONAL, L, c, 1).count() == b
        assert Selection(Pattern.SUBDIAGONAL, L, c, 1).count() == b
        assert Selection(Pattern.SUBDIAGONAL, L, c, 0).count() == b - 1
        assert Selection(Pattern.COLUMNS, L, c, 1).count() == b * L
        assert Selection(Pattern.ROWS, L, c, 1).count() == b * L

    def test_reduction_factors_match_paper_table(self):
        """Sec. II-B: cL for S1, c for S3/S4."""
        L, c = 100, 10
        assert Selection(Pattern.DIAGONAL, L, c, 1).reduction_factor() == c * L
        assert Selection(Pattern.COLUMNS, L, c, 1).reduction_factor() == c
        assert Selection(Pattern.ROWS, L, c, 1).reduction_factor() == c

    def test_memory_saving_example(self):
        """Paper: (N, L) = (1000, 100), c = 10 -> 90% memory saved."""
        sel = Selection(Pattern.COLUMNS, L=100, c=10, q=0)
        saved = 1.0 - 1.0 / sel.reduction_factor()
        assert saved == pytest.approx(0.9)

    def test_block_indices_columns(self):
        sel = Selection(Pattern.COLUMNS, L=8, c=4, q=1)
        idx = sel.block_indices()
        assert len(idx) == 16
        assert {l for _, l in idx} == {3, 7}
        assert {k for k, _ in idx} == set(range(1, 9))

    def test_block_indices_full_diagonal(self):
        sel = Selection(Pattern.FULL_DIAGONAL, L=8, c=4, q=0)
        assert sel.block_indices() == [(k, k) for k in range(1, 9)]

    def test_subdiagonal_indices_skip_L(self):
        sel = Selection(Pattern.SUBDIAGONAL, L=8, c=4, q=0)
        assert sel.block_indices() == [(4, 5)]  # k=8 skipped

    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            Selection(Pattern.COLUMNS, L=10, c=3, q=0)


class TestSelectedInversion:
    @pytest.fixture
    def sel_inv(self):
        sel = Selection(Pattern.DIAGONAL, L=8, c=4, q=1)
        blocks = {(k, k): np.full((2, 2), float(k)) for k in (3, 7)}
        return SelectedInversion(sel, blocks, N=2)

    def test_getitem_torus(self, sel_inv):
        np.testing.assert_array_equal(sel_inv[(3, 3)], np.full((2, 2), 3.0))
        np.testing.assert_array_equal(sel_inv[(11, 11)], sel_inv[(3, 3)])

    def test_contains(self, sel_inv):
        assert (7, 7) in sel_inv
        assert (4, 4) not in sel_inv

    def test_len_iter(self, sel_inv):
        assert len(sel_inv) == 2
        assert set(sel_inv) == {(3, 3), (7, 7)}

    def test_diagonal_blocks(self, sel_inv):
        assert set(sel_inv.diagonal_blocks()) == {3, 7}

    def test_memory_bytes(self, sel_inv):
        assert sel_inv.memory_bytes() == 2 * 4 * 8

    def test_rejects_missing_blocks(self):
        sel = Selection(Pattern.DIAGONAL, L=8, c=4, q=1)
        with pytest.raises(ValueError, match="missing"):
            SelectedInversion(sel, {(3, 3): np.eye(2)}, N=2)

    def test_rejects_extra_blocks(self):
        sel = Selection(Pattern.DIAGONAL, L=8, c=4, q=1)
        blocks = {
            (3, 3): np.eye(2),
            (7, 7): np.eye(2),
            (1, 1): np.eye(2),
        }
        with pytest.raises(ValueError, match="unexpected"):
            SelectedInversion(sel, blocks, N=2)

    def test_max_relative_error_zero_for_exact(self, sel_inv):
        G = np.zeros((16, 16))
        for k in (3, 7):
            G[(k - 1) * 2 : k * 2, (k - 1) * 2 : k * 2] = float(k)
        assert sel_inv.max_relative_error(G) == 0.0

    def test_flat_buffer_slots(self, sel_inv):
        assert sel_inv.data.shape == (2, 2, 2)
        assert sel_inv.nbytes == sel_inv.data.nbytes
        assert np.shares_memory(sel_inv[(7, 7)], sel_inv.data)
        sel_inv[(11, 11)] = np.zeros((2, 2))  # torus key, written in place
        assert not sel_inv.data[0].any()

    def test_column_of_columns_pattern_is_a_view(self):
        sel = Selection(Pattern.COLUMNS, L=4, c=2, q=0)
        si = SelectedInversion(
            sel, {kl: np.full((2, 2), float(kl[0])) for kl in sel.block_indices()}
        )
        col = si.column(4)
        assert col.shape == (4, 2, 2)
        assert np.shares_memory(col, si.data)
        assert [float(b[0, 0]) for b in col] == [1.0, 2.0, 3.0, 4.0]

    def test_row_column_accessors_require_pattern(self):
        sel = Selection(Pattern.ROWS, L=4, c=2, q=0)
        blocks = {
            (k, l): np.eye(2) for k in (2, 4) for l in range(1, 5)
        }
        si = SelectedInversion(sel, blocks, N=2)
        assert si.row(2).shape == (4, 2, 2)
        with pytest.raises(KeyError):
            si.column(1)  # rows pattern has no full column 1


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        from repro.core.fsi import fsi
        from repro.core.pcyclic import random_pcyclic

        pc = random_pcyclic(8, 3, np.random.default_rng(0), scale=0.6)
        res = fsi(pc, 4, pattern=Pattern.COLUMNS, q=1, num_threads=1)
        path = tmp_path / "sel.npz"
        res.selected.save(path)
        loaded = SelectedInversion.load(path)
        assert loaded.selection == res.selection
        assert len(loaded) == len(res.selected)
        for kl in res.selected:
            np.testing.assert_array_equal(loaded[kl], res.selected[kl])

    def test_saves_the_buffer_in_block_order(self, tmp_path):
        from repro.core.fsi import fsi
        from repro.core.pcyclic import random_pcyclic

        pc = random_pcyclic(8, 3, np.random.default_rng(2), scale=0.6)
        sel = fsi(pc, 4, pattern=Pattern.ROWS, q=2, num_threads=1).selected
        path = tmp_path / "rows.npz"
        sel.save(path)
        with np.load(path) as data:
            assert [tuple(k) for k in data["keys"]] == sel.selection.block_indices()
            np.testing.assert_array_equal(data["blocks"], sel.data)

    def test_loads_the_old_sorted_key_layout(self, tmp_path):
        """Files written before the flat buffer stored blocks in sorted
        key order; they load by their keys."""
        sel = Selection(Pattern.COLUMNS, L=4, c=2, q=1)
        rng = np.random.default_rng(3)
        blocks = {kl: rng.standard_normal((2, 2)) for kl in sel.block_indices()}
        keys = sorted(blocks)
        assert keys != sel.block_indices()
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            pattern=np.frombuffer(b"columns", dtype=np.uint8),
            geometry=np.array([4, 2, 1, 2]),
            keys=np.array(keys, dtype=np.int64),
            blocks=np.stack([blocks[kl] for kl in keys]),
        )
        loaded = SelectedInversion.load(path)
        assert list(loaded) == sel.block_indices()
        for kl, blk in blocks.items():
            np.testing.assert_array_equal(loaded[kl], blk)

    def test_roundtrip_all_patterns(self, tmp_path):
        from repro.core.fsi import fsi
        from repro.core.pcyclic import random_pcyclic

        pc = random_pcyclic(8, 3, np.random.default_rng(1), scale=0.6)
        for pattern in Pattern:
            res = fsi(pc, 4, pattern=pattern, q=0, num_threads=1)
            path = tmp_path / f"{pattern.value}.npz"
            res.selected.save(path)
            loaded = SelectedInversion.load(path)
            assert loaded.selection.pattern is pattern
            assert loaded.max_relative_error(
                np.linalg.inv(pc.to_dense())
            ) < 1e-9
