"""FSI for block tridiagonal matrices — the paper's future-work extension.

The three-stage shape of Alg. 1 transfers directly:

1. **reduce** — :func:`repro.tridiag.reduction.schur_reduce` eliminates
   the interior of every length-``(c-1)`` run (parallel per run, like
   CLS clusters), leaving a ``b``-block tridiagonal ``J~`` whose
   inverse blocks are exact blocks of ``G = J^{-1}`` on the kept grid;
2. **invert** — the reduced inverse is built from the reduced Schur
   factors: diagonal blocks from ``(S~ + T~ - A~)^{-1}``, off-diagonals
   by walking each column with the adjacency relations (``O(b^2 N^3)``);
3. **wrap** — the seeds grow into the requested pattern with the
   *original* matrix's adjacency relations (parallel per seed, like
   WRP).  Unlike the p-cyclic torus, the chain is open, so the walk
   ranges are clamped: each row/column is assigned to its *nearest*
   seed and edge seeds absorb the leftovers.

Supported patterns (reusing :class:`repro.core.patterns.Selection`):
``DIAGONAL``, ``SUBDIAGONAL``, ``COLUMNS``, ``ROWS`` and
``FULL_DIAGONAL``.
"""

from __future__ import annotations

import numpy as np

from ..core.patterns import Pattern, SelectedInversion, Selection
from ..core.pipeline import cluster_offset
from ..parallel.openmp import parallel_for
from .matrix import BlockTridiagonal
from .reduction import schur_reduce
from .rgf import SchurFactors, TridiagAdjacency

__all__ = ["btd_full_inverse", "fsi_tridiagonal"]


def btd_full_inverse(J: BlockTridiagonal) -> np.ndarray:
    """All ``L x L`` blocks of ``J^{-1}`` as ``(L, L, N, N)``.

    ``O(L^2 N^3)`` via the Schur factors and one adjacency move per
    block — used on the *reduced* matrix (``L = b``) inside
    :func:`fsi_tridiagonal`, and as an oracle in tests.
    """
    L, N = J.L, J.N
    f = SchurFactors(J)
    ops = TridiagAdjacency(f)
    G = np.empty((L, L, N, N))
    for j in range(1, L + 1):
        G[j - 1, j - 1] = f.diagonal_block(j)
        g = G[j - 1, j - 1]
        for i in range(j, 1, -1):  # walk up the column
            g = ops.up(g, i, j)
            G[i - 2, j - 1] = g
        g = G[j - 1, j - 1]
        for i in range(j, L):  # walk down the column
            g = ops.down(g, i, j)
            G[i, j - 1] = g
    return G


def _nearest_seed_ranges(L: int, seeds: list[int]) -> list[tuple[int, int]]:
    """Partition rows ``1..L`` among seeds by nearest distance.

    Returns per-seed inclusive ``(lo, hi)`` ranges; ties go to the
    lower seed, edge seeds absorb the chain ends.
    """
    ranges = []
    for m, k in enumerate(seeds):
        lo = 1 if m == 0 else (seeds[m - 1] + k) // 2 + 1
        hi = L if m == len(seeds) - 1 else (k + seeds[m + 1]) // 2
        ranges.append((lo, hi))
    return ranges


def fsi_tridiagonal(
    J: BlockTridiagonal,
    c: int,
    pattern: Pattern = Pattern.COLUMNS,
    q: int | None = None,
    rng: np.random.Generator | int | None = None,
    num_threads: int | None = None,
) -> SelectedInversion:
    """Fast selected inversion of a block tridiagonal matrix.

    Mirrors :func:`repro.core.fsi.fsi`; see the module docstring for
    the three stages.  Requires ``c | L``; the off-diagonal walks of the
    COLUMNS/ROWS patterns additionally require invertible ``E``/``F``
    blocks whenever a walk moves *away* from the diagonal (satisfied by
    the workloads in :mod:`repro.tridiag.matrix`).
    """
    L, N = J.L, J.N
    q = cluster_offset(L, c, q, rng)
    selection = Selection(pattern, L=L, c=c, q=q)
    seeds_idx = selection.seeds
    b = selection.b

    # Stage 1+2: reduced matrix and its full inverse (the seed grid).
    reduced = schur_reduce(J, c, q, num_threads=num_threads)
    G_seeds = btd_full_inverse(reduced)

    factors = SchurFactors(J)
    ops = TridiagAdjacency(factors)
    out: dict[tuple[int, int], np.ndarray] = {}

    if pattern is Pattern.DIAGONAL:
        for m, k in enumerate(seeds_idx):
            out[(k, k)] = np.array(G_seeds[m, m], copy=True)
        return SelectedInversion(selection, out, N)

    if pattern is Pattern.SUBDIAGONAL:
        todo = [(m, k) for m, k in enumerate(seeds_idx) if k != L]
        results: list[np.ndarray | None] = [None] * len(todo)

        def sub_body(t: int) -> None:
            m, k = todo[t]
            results[t] = ops.right(G_seeds[m, m], k, k)

        parallel_for(sub_body, len(todo), num_threads=num_threads)
        for t, (_m, k) in enumerate(todo):
            blk = results[t]
            assert blk is not None
            out[(k, k + 1)] = blk
        return SelectedInversion(selection, out, N)

    if pattern is Pattern.FULL_DIAGONAL:
        # The open-chain Schur factors give every diagonal block
        # directly — no walking needed.  Threads write into a pre-sized
        # list (no concurrent dict mutation).
        blocks: list[np.ndarray | None] = [None] * L

        def diag_body(i0: int) -> None:
            blocks[i0] = factors.diagonal_block(i0 + 1)

        parallel_for(diag_body, L, num_threads=num_threads)
        for i0, blk in enumerate(blocks):
            assert blk is not None
            out[(i0 + 1, i0 + 1)] = blk
        return SelectedInversion(selection, out, N)

    # COLUMNS / ROWS: per-seed walks with nearest-seed row assignment.
    ranges = _nearest_seed_ranges(L, seeds_idx)
    tasks = [(m, l0) for m in range(b) for l0 in range(b)]
    chunks: list[dict[tuple[int, int], np.ndarray]] = [{} for _ in tasks]

    def walk_body(t: int) -> None:
        m, l0 = tasks[t]
        local = chunks[t]
        k, l = seeds_idx[m], seeds_idx[l0]
        lo, hi = ranges[m]
        seed = G_seeds[m, l0]
        if pattern is Pattern.COLUMNS:
            local[(k, l)] = np.array(seed, copy=True)
            g, i = seed, k
            while i > lo:
                g = ops.up(g, i, l)
                i -= 1
                local[(i, l)] = g
            g, i = seed, k
            while i < hi:
                g = ops.down(g, i, l)
                i += 1
                local[(i, l)] = g
        else:  # ROWS: the seed row index is seeds_idx[m]; walk columns.
            k_row, l_col = seeds_idx[l0], seeds_idx[m]
            # For ROWS we reinterpret the task: row seed l0 walks its
            # columns over range(m); swap roles so every (row in I,
            # column 1..L) is produced exactly once.
            seed_rc = G_seeds[l0, m]
            local[(k_row, l_col)] = np.array(seed_rc, copy=True)
            g, j = seed_rc, l_col
            while j > lo:
                g = ops.left(g, k_row, j)
                j -= 1
                local[(k_row, j)] = g
            g, j = seed_rc, l_col
            while j < hi:
                g = ops.right(g, k_row, j)
                j += 1
                local[(k_row, j)] = g

    parallel_for(walk_body, len(tasks), num_threads=num_threads)
    for local in chunks:
        out.update(local)
    return SelectedInversion(selection, out, N)
