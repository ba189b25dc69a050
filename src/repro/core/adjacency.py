"""Adjacency relations between neighbouring blocks of ``G`` (Eqs. (4)-(7)).

The central observation of the paper (Fig. 1): once one block ``G_kl``
of the Green's function is known, its four neighbours follow from a
single gemm with one ``B`` block or its inverse:

* **up** (Eq. (4)):    ``G_{k-1,l} = B_k^{-1} G_kl``
* **down** (Eq. (5)):  ``G_{k+1,l} = B_{k+1} G_kl``
* **left** (Eq. (6)):  ``G_{k,l-1} = G_kl B_l``
* **right** (Eq. (7)): ``G_{k,l+1} = G_kl B_{l+1}^{-1}``

with boundary corrections (identity shifts and sign flips) whenever the
move starts or lands on the block diagonal or crosses the torus seam
between rows/columns ``L`` and ``1``.  All four relations derive from
``M G = I`` (rows) and ``G M = I`` (columns); this module owns every
boundary case so that block-by-block walks (:mod:`repro.core.
custom_wrap`, the tests' reference chains) need not re-derive them.
The pattern walks of :mod:`repro.core.wrap` apply the same relations
as batched gemms.

Every ``B_i^{-1}`` comes from :meth:`BlockPCyclic.inverse
<repro.core.pcyclic.BlockPCyclic.inverse>`.  :class:`AdjacencyOps`
caches the inverses it forms by LU, one per block, because a custom
walk applies the same ``B_i^{-1}`` many times; an exact inverse (a
Hubbard matrix) costs ``O(N^2)`` and is formed anew on every call.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as kr
from .pcyclic import BlockPCyclic, torus_index

__all__ = ["AdjacencyOps"]


class AdjacencyOps:
    """Boundary-aware neighbour moves on blocks of ``G = M^{-1}``.

    Parameters
    ----------
    pc:
        The block p-cyclic matrix whose inverse is being navigated.

    Notes
    -----
    Formed inverses are cached per block index, in a plain dict.  A
    :class:`~repro.spectral.resolvent.ResolventFactor` shares one
    instance among its shifts, which run one after another on the
    calling thread.
    """

    def __init__(self, pc: BlockPCyclic):
        self.pc = pc
        self._inv: dict[int, np.ndarray] = {}

    def inverse(self, i: int) -> np.ndarray:
        """``B_i^{-1}``: exact ones anew, formed ones from the cache."""
        if self.pc.inverses is not None:
            return self.pc.inverse(i)
        i = torus_index(i, self.pc.L)
        inv = self._inv.get(i)
        if inv is None:
            inv = self._inv[i] = self.pc.inverse(i)
        return inv

    # -- the four moves ---------------------------------------------------
    def up(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k-1,l}`` from ``G_kl`` (Eq. (4) with boundary cases).

        General: ``B_k^{-1} G_kl``; subtract ``I`` first when ``k == l``
        (move starts on the diagonal); negate when ``k == 1`` (the move
        crosses the torus seam through the corner block ``B_1``).
        """
        L = self.pc.L
        k = torus_index(k, L)
        l = torus_index(l, L)
        S = G_kl
        if k == l:
            S = S.copy()
            kr.add_identity(S, -1.0)
        out = kr.gemm(self.inverse(k), S)
        return -out if k == 1 else out

    def down(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k+1,l}`` from ``G_kl`` (Eq. (5) with boundary cases).

        General: ``B_{k+1} G_kl``; negate when the move lands on row 1
        (seam); add ``I`` when it lands on the diagonal (``k+1 == l``).
        """
        L = self.pc.L
        k = torus_index(k, L)
        l = torus_index(l, L)
        kp = torus_index(k + 1, L)
        out = kr.gemm(self.pc.block(kp), G_kl)
        if kp == 1:
            out = -out
        if kp == l:
            kr.add_identity(out)
        return out

    def left(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k,l-1}`` from ``G_kl`` (Eq. (6) with boundary cases).

        General: ``G_kl B_l``; negate when the move crosses the seam
        (``l == 1`` so the target column is ``L``); add ``I`` when it
        lands on the diagonal (``k == l-1``).
        """
        L = self.pc.L
        k = torus_index(k, L)
        l = torus_index(l, L)
        lm = torus_index(l - 1, L)
        out = kr.gemm(G_kl, self.pc.block(l))
        if l == 1:
            out = -out
        if k == lm:
            kr.add_identity(out)
        return out

    def right(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k,l+1}`` from ``G_kl`` (Eq. (7) with boundary cases).

        General: ``G_kl B_{l+1}^{-1}``; subtract ``I`` first when the
        move starts on the diagonal (``k == l``); negate when it crosses
        the seam (target column 1).
        """
        L = self.pc.L
        k = torus_index(k, L)
        l = torus_index(l, L)
        lp = torus_index(l + 1, L)
        S = G_kl
        if k == l:
            S = S.copy()
            kr.add_identity(S, -1.0)
        out = kr.gemm(S, self.inverse(lp))
        return -out if lp == 1 else out

    # -- composed diagonal moves -------------------------------------------
    def down_right(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k+1,l+1}`` (used to walk the diagonal downward)."""
        kp = torus_index(k + 1, self.pc.L)
        return self.right(self.down(G_kl, k, l), kp, l)

    def up_left(self, G_kl: np.ndarray, k: int, l: int) -> np.ndarray:
        """``G_{k-1,l-1}`` (used to walk the diagonal upward)."""
        km = torus_index(k - 1, self.pc.L)
        return self.left(self.up(G_kl, k, l), km, l)
