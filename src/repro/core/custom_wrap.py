"""Wrapping arbitrary block sets — beyond the four canonical patterns.

Applications sometimes need a handful of specific blocks of ``G``
(e.g. the ``(k, l)`` pairs of one temporal distance, or a scattered
query set) rather than whole rows/columns.  The FSI machinery supports
this directly: every requested block is grown from the **nearest seed**
of the ``b x b`` grid by a shortest walk of adjacency moves —
vertical moves first (Eq. (4)/(5)), then horizontal (Eq. (6)/(7)) —
at one gemm per step, at most ``~c`` steps total.

:func:`wrap_blocks` returns a plain dict (the requested set need not
match a :class:`~repro.core.patterns.Selection` shape).  Walks from the
same seed share their vertical prefix via memoisation, so requesting a
dense cluster of blocks costs little more than its bounding segment.
"""

from __future__ import annotations

import numpy as np

from .adjacency import AdjacencyOps
from .patterns import seed_indices
from .pcyclic import BlockPCyclic, torus_index

__all__ = ["wrap_blocks", "nearest_seed", "torus_distance"]


def torus_distance(a: int, b: int, L: int) -> int:
    """Signed shortest displacement ``b -> a`` on the 1-based torus.

    Returns ``d`` with ``-L/2 < d <= L/2`` and
    ``a == torus_index(b + d, L)``; a tie (distance exactly ``L/2``)
    resolves to the positive direction.
    """
    d = (a - b) % L
    if d > L - d:
        d -= L
    return d


def nearest_seed(k: int, l: int, L: int, c: int, q: int) -> tuple[int, int]:
    """The seed-grid index ``(k0, l0)`` (1-based) nearest to block ``(k, l)``.

    Nearness is the walk length ``|dk| + |dl|`` on the torus from the
    seed ``(c k0 - q, c l0 - q)``.
    """
    seeds = seed_indices(L, c, q)

    def best(x: int) -> int:
        return min(
            range(1, len(seeds) + 1),
            key=lambda i0: abs(torus_distance(x, seeds[i0 - 1], L)),
        )

    return best(k), best(l)


def wrap_blocks(
    pc: BlockPCyclic,
    G_seeds: np.ndarray,
    c: int,
    q: int,
    blocks: list[tuple[int, int]],
    ops: AdjacencyOps | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Compute an arbitrary set of blocks of ``G`` from the seed grid.

    Parameters
    ----------
    pc:
        The original (un-reduced) block p-cyclic matrix.
    G_seeds:
        The ``(b, b, N, N)`` reduced inverse (e.g. ``FSIResult.seeds``).
    c, q:
        The geometry the seeds were produced with.
    blocks:
        Requested 1-based ``(k, l)`` positions (torus-wrapped).
    ops:
        Optional shared :class:`AdjacencyOps` (reuses the block
        inverses it formed).

    Returns
    -------
    dict
        ``{(k, l): G_kl}`` for every requested position.
    """
    L, N = pc.L, pc.N
    b = L // c
    if G_seeds.shape != (b, b, N, N):
        raise ValueError(
            f"seed grid shape {G_seeds.shape} != expected {(b, b, N, N)}"
        )
    seeds = seed_indices(L, c, q)
    if ops is None:
        ops = AdjacencyOps(pc)

    # Memoised walk state: known blocks by (k, l).
    known: dict[tuple[int, int], np.ndarray] = {}
    for k0 in range(1, b + 1):
        for l0 in range(1, b + 1):
            known[(seeds[k0 - 1], seeds[l0 - 1])] = G_seeds[k0 - 1, l0 - 1]

    out: dict[tuple[int, int], np.ndarray] = {}
    for k_raw, l_raw in blocks:
        k = torus_index(k_raw, L)
        l = torus_index(l_raw, L)
        if (k, l) in known:
            out[(k, l)] = known[(k, l)]
            continue
        k0, l0 = nearest_seed(k, l, L, c, q)
        sk, sl = seeds[k0 - 1], seeds[l0 - 1]
        dk = torus_distance(k, sk, L)
        dl = torus_distance(l, sl, L)
        # Vertical leg first (memoised: shared by all blocks in the
        # same column cluster), then horizontal.
        ck, cl = sk, sl
        g = known[(ck, cl)]
        for _ in range(abs(dk)):
            nxt_k = torus_index(ck + (1 if dk > 0 else -1), L)
            if (nxt_k, cl) in known:
                g = known[(nxt_k, cl)]
            else:
                g = ops.down(g, ck, cl) if dk > 0 else ops.up(g, ck, cl)
                known[(nxt_k, cl)] = g
            ck = nxt_k
        for _ in range(abs(dl)):
            nxt_l = torus_index(cl + (1 if dl > 0 else -1), L)
            if (ck, nxt_l) in known:
                g = known[(ck, nxt_l)]
            else:
                g = ops.right(g, ck, cl) if dl > 0 else ops.left(g, ck, cl)
                known[(ck, nxt_l)] = g
            cl = nxt_l
        out[(k, l)] = g
    return out
