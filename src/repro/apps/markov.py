"""p-cyclic Markov chains — the non-QMC application from the paper's intro.

Sec. II-A notes that block p-cyclic matrices appear in "Markov chain
modelling" (Stewart, ref. [21]).  A *periodic* (p-cyclic) Markov chain
has its states partitioned into ``L`` classes visited cyclically: from
class ``l`` the chain can only move to class ``l+1 (mod L)``, so the
transition matrix is block-superdiagonal-plus-corner, and the
discounted resolvent

    ``R(z) = (I - z P)^{-1} = sum_{t>=0} z^t P^t``,   ``0 < z < 1``

— whose ``(i, j)`` entry is the expected discounted number of visits
to state ``j`` starting from ``i`` — is the inverse of a block
p-cyclic matrix.  Selected block columns of ``R`` answer "expected
visits to the states of class ``l``" queries without ever forming the
full resolvent; this module maps the chain onto
:class:`repro.core.pcyclic.BlockPCyclic` so all of FSI applies.

Orientation note: ``I - z P`` has its blocks on the *super*-diagonal;
our normal form keeps them on the sub-diagonal, so the library operates
on the transpose and the accessors below undo it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fsi import fsi
from ..core.patterns import Pattern
from ..core.pcyclic import BlockPCyclic

__all__ = ["CyclicMarkovChain", "resolvent_columns"]


@dataclass(frozen=True)
class CyclicMarkovChain:
    """A Markov chain with ``L`` cyclic classes of ``N`` states each.

    Parameters
    ----------
    P:
        Stacked class-to-class transition blocks, shape ``(L, N, N)``:
        ``P[l]`` maps class ``l+1``'s states to class ``l+2``'s (1-based
        classes, wrapping), i.e. the full transition matrix has block
        ``P[l]`` at block position ``(l, l+1 mod L)``.  Each block must
        be row-substochastic or stochastic.
    """

    P: np.ndarray

    def __post_init__(self) -> None:
        P = np.ascontiguousarray(np.asarray(self.P, dtype=float))
        if P.ndim != 3 or P.shape[1] != P.shape[2]:
            raise ValueError(f"P must be (L, N, N), got {P.shape!r}")
        if np.any(P < -1e-14):
            raise ValueError("transition probabilities must be non-negative")
        rows = P.sum(axis=2)
        if np.any(rows > 1.0 + 1e-10):
            raise ValueError("rows must be (sub)stochastic (sum <= 1)")
        object.__setattr__(self, "P", P)

    @classmethod
    def random(
        cls, L: int, N: int, rng: np.random.Generator | int | None = None
    ) -> "CyclicMarkovChain":
        """Random stochastic blocks (Dirichlet rows)."""
        gen = np.random.default_rng(rng)
        P = gen.dirichlet(np.ones(N), size=(L, N))
        return cls(P)

    @property
    def L(self) -> int:
        return self.P.shape[0]

    @property
    def N(self) -> int:
        return self.P.shape[1]

    def transition_matrix(self) -> np.ndarray:
        """The full ``(N L) x (N L)`` transition matrix (dense; oracles)."""
        L, N = self.L, self.N
        T = np.zeros((L * N, L * N))
        for l in range(L):
            lp = (l + 1) % L
            T[l * N : (l + 1) * N, lp * N : (lp + 1) * N] = self.P[l]
        return T

    def resolvent_pcyclic(self, z: float) -> BlockPCyclic:
        """``(I - z P)^T`` as a normalized block p-cyclic matrix.

        ``I - z P`` has ``-z P[l]`` at ``(l, l+1)``; its transpose has
        ``-z P[l]^T`` at ``(l+1, l)`` — matching our normal form with
        ``B_{l+1} = z P[l]^T`` and the corner ``B_1 = -z P[L-1]^T``
        (the normal form carries ``+B_1`` in the corner and ``-B_i``
        below the diagonal, hence the sign flip on the corner block).
        """
        if not 0 < z < 1:
            raise ValueError(f"discount z must be in (0, 1), got {z}")
        L, N = self.L, self.N
        B = np.empty((L, N, N))
        # Sub-diagonal positions (i+1, i), 0-based i: -B_{i+2} = -z P[i]^T
        for l in range(L - 1):
            B[l + 1] = z * np.ascontiguousarray(self.P[l].T)
        # Corner (1, L): +B_1 must equal -z P[L-1]^T.
        B[0] = -z * np.ascontiguousarray(self.P[L - 1].T)
        return BlockPCyclic(B)


def resolvent_columns(
    chain: CyclicMarkovChain,
    z: float,
    c: int,
    q: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Selected block *columns* of the resolvent ``R(z) = (I - zP)^{-1}``.

    Because the library works on the transpose, the selected block
    *columns* of ``R`` come from selected block **rows** of the
    transposed inverse; the returned dict is keyed by the resolvent's
    own 1-based block position ``(row_class, col_class)`` with
    ``col_class`` in the selected set.

    ``R[(k, l)][i, j]`` = expected discounted visits to state ``j`` of
    class ``l`` starting from state ``i`` of class ``k``.
    """
    pc = chain.resolvent_pcyclic(z)
    res = fsi(pc, c, pattern=Pattern.ROWS, q=q, rng=rng)
    out: dict[tuple[int, int], np.ndarray] = {}
    for (k, l), blk in res.selected.items():
        # (G^T)_{l,k} = R_{l,k}... G here is ((I - zP)^T)^{-1} = R^T, so
        # R_{k', l'} = G_{l', k'}^T.
        out[(l, k)] = np.ascontiguousarray(blk.T)
    return out
