"""CLS — factor-of-``c`` block cyclic reduction (clustering).

The first stage of FSI (Alg. 1): replace the ``L`` blocks ``B_j`` of
``M`` by ``b = L/c`` clustered products

    ``B~_i = B_{j0} B_{j0-1} ... B_{j0-c+1}``,   ``j0 = c*i - q``

(indices wrapped onto the torus, ``j <= 0  ->  j + L``), producing the
*reduced* block p-cyclic matrix ``M~`` whose inverse blocks are exact
blocks of the original Green's function:

    ``G~_{k0,l0} = G_{c*k0-q, c*l0-q}``    (Eq. (8)).

Cost: ``c - 1`` gemms per cluster, i.e. ``2 b (c-1) N^3`` flops total.
Clusters are data-independent, and the paper assigns one OpenMP thread
per cluster.  :func:`cls` builds them in a plain loop on the calling
thread: at paper scale on a 2-core host (1 BLAS thread) a 2-thread team
took 4.4 ms against 4.1 ms for one thread, in 6 alternating rounds.

The cluster size trades reduction against accuracy: products of many
``B`` blocks lose precision (the blocks' singular values spread
exponentially with ``c`` for low-temperature Hubbard matrices), so the
paper recommends ``c ~ sqrt(L)``.  :mod:`repro.core.stability` measures
this trade-off.
"""

from __future__ import annotations

import numpy as np

from ..parallel.budget import process_budget
from ..telemetry import runtime as _telemetry
from . import _kernels as kr
from .pcyclic import BlockPCyclic, torus_index

__all__ = ["cls", "cluster_product", "cls_flops"]


def cluster_product(pc: BlockPCyclic, i: int, c: int, q: int) -> np.ndarray:
    """One clustered block ``B~_i = B_{j0} B_{j0-1} ... B_{j0-c+1}``.

    ``i`` is the 1-based cluster index, ``j0 = c*i - q``; factors are
    accumulated left-to-right (``((B_{j0} B_{j0-1}) B_{j0-2}) ...``)
    which keeps each partial product a single gemm with a fresh block.
    """
    j0 = c * i - q
    P = np.array(pc.block(j0), copy=True)
    for step in range(1, c):
        P = kr.gemm(P, pc.block(torus_index(j0 - step, pc.L)))
    return P


def cls(
    pc: BlockPCyclic,
    c: int,
    q: int,
    num_threads: int | None = None,
) -> BlockPCyclic:
    """Factor-of-``c`` block cyclic reduction of ``pc``.

    Parameters
    ----------
    pc:
        The normalized block p-cyclic matrix ``M`` (``L`` blocks).
    c:
        Cluster size; must divide ``L``.  ``c = 1`` returns a copy-free
        view (``q`` must then be 0).
    q:
        Offset in ``{0, ..., c-1}`` selecting which blocks of ``G`` the
        reduced inverse will expose (Eq. (8)); randomised by the FSI
        driver per Green's function.
    num_threads:
        Accepted and ignored: the clusters are built on the calling
        thread, where a thread team measured no faster.  Kept so that
        existing callers, which pass a team size, run unchanged.

    Returns
    -------
    BlockPCyclic
        The reduced matrix ``M~`` with ``b = L/c`` blocks.
    """
    L, N = pc.L, pc.N
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    if not 0 <= q <= c - 1:
        raise ValueError(f"q={q} must lie in [0, {c - 1}]")
    # Every solve starts here, so its BLAS calls run under the process's
    # budget: one BLAS thread unless a BLAS variable says otherwise.  At
    # N = 100 a second BLAS thread makes a solve several times slower.
    process_budget()
    if c == 1:
        return pc
    b = L // c
    out = np.empty((b, N, N), dtype=pc.dtype)
    with _telemetry.span("cls.reduce", b=b, c=c, q=q):
        for i0 in range(b):
            out[i0] = cluster_product(pc, i0 + 1, c, q)
    return BlockPCyclic(out)


def cls_flops(L: int, N: int, c: int) -> float:
    """Closed-form CLS cost ``2 b (c-1) N^3`` (Sec. II-C)."""
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    b = L // c
    return 2.0 * b * (c - 1) * N**3
