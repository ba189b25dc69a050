"""Block p-cyclic matrices in DQMC normal form.

The paper works with two closely related objects:

* the *general* block p-cyclic matrix ``A`` (Eq. (1)) with nonsingular
  diagonal blocks ``A_{ii}`` and one nonzero sub-diagonal block per row
  plus a corner block ``A_{1L}``;
* its *normalized* form ``M = D^{-1} A`` where ``D = diag(A_11, ...,
  A_LL)``, which has identity diagonal blocks, sub-diagonal blocks
  ``-B_i`` and a corner block ``+B_1``::

      M = [  I              B_1 ]
          [ -B_2   I            ]
          [       -B_3  I       ]
          [             ...     ]
          [            -B_L   I ]

  with ``B_1 = A_11^{-1} A_1L`` and ``B_i = -A_ii^{-1} A_{i,i-1}`` for
  ``i >= 2``.

The Green's function of a DQMC simulation is ``G = M^{-1}``; the inverse
of the general matrix follows as ``A^{-1} = G D^{-1}``.

This module provides :class:`BlockPCyclic`, the container used by every
algorithm in :mod:`repro.core` (CLS, BSOFI, WRP, FSI, baselines).
Blocks are stored as one contiguous ``(L, N, N)`` array so that each
``B_i`` is a contiguous view — all downstream kernels are gemm-rich and
benefit from contiguous operands.  :meth:`BlockPCyclic.inverse` is the
one source of ``B_i^{-1}`` for the wrapping moves, which apply it by
gemm: a matrix whose block inverses are known in closed form (the
Hubbard matrix: :meth:`~repro.hubbard.matrix.HubbardModel.build_matrix`)
carries a provider of the exact ``B_i^{-1}``; any other forms it by LU.

Block indices in the public API are **1-based** (``1 <= i <= L``) to
match the paper; a *torus* convention maps ``0 -> L`` and ``L+1 -> 1``
(see :func:`torus_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _kernels as kr

__all__ = [
    "BlockPCyclic",
    "torus_index",
    "random_pcyclic",
    "pcyclic_from_general",
]


def torus_index(k: int, L: int) -> int:
    """Map an out-of-range 1-based block index onto the torus ``{1..L}``.

    The paper's convention: ``k = 0`` means ``L`` and ``k = L + 1`` means
    ``1``.  Arbitrary integers are reduced modulo ``L``.

    >>> torus_index(0, 8)
    8
    >>> torus_index(9, 8)
    1
    >>> torus_index(5, 8)
    5
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    return (k - 1) % L + 1


@dataclass(frozen=True)
class BlockPCyclic:
    """A block p-cyclic matrix in normalized (DQMC) form.

    Parameters
    ----------
    B:
        Array of shape ``(L, N, N)``; ``B[i - 1]`` holds the block
        ``B_i`` of the normalized matrix ``M`` above.  The identity
        diagonal is implicit.
    inverses:
        Optional provider of the exact ``B_i^{-1}`` for a 1-based
        ``i`` in ``1..L``, in ``O(N^2)`` (see :meth:`inverse`).  It is
        derived from ``B`` by whoever built it, so it takes no part in
        ``==`` or ``repr``; it must pickle.  Every matrix derived from
        this one (reduced, shifted, sliced, corrupted) is built without
        it.

    Notes
    -----
    Instances are immutable containers; algorithms never mutate ``B``
    in place.  Use :meth:`block` for 1-based access.
    """

    B: np.ndarray
    inverses: Callable[[int], np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        B = np.asarray(self.B)
        if B.ndim != 3 or B.shape[1] != B.shape[2]:
            raise ValueError(
                f"B must have shape (L, N, N), got {B.shape!r}"
            )
        if B.shape[0] < 1:
            raise ValueError("need at least one block (L >= 1)")
        if not np.issubdtype(B.dtype, np.floating) and not np.issubdtype(
            B.dtype, np.complexfloating
        ):
            B = B.astype(np.float64)
        object.__setattr__(self, "B", np.ascontiguousarray(B))

    # ------------------------------------------------------------------
    # shape / access
    # ------------------------------------------------------------------
    @property
    def L(self) -> int:
        """Number of block rows/columns (time slices in DQMC)."""
        return self.B.shape[0]

    @property
    def N(self) -> int:
        """Block dimension (number of lattice sites in DQMC)."""
        return self.B.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the dense matrix: ``(N*L, N*L)``."""
        n = self.N * self.L
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self.B.dtype

    def block(self, i: int) -> np.ndarray:
        """Return ``B_i`` (1-based, torus-wrapped) as a contiguous view."""
        return self.B[torus_index(i, self.L) - 1]

    def blocks(self, indices: Iterable[int]) -> list[np.ndarray]:
        """Return ``[B_i for i in indices]`` with torus wrapping."""
        return [self.block(i) for i in indices]

    def inverse(self, i: int) -> np.ndarray:
        """``B_i^{-1}`` (1-based, torus-wrapped), a new array.

        From the ``inverses`` provider in ``O(N^2)`` when the matrix has
        one, else formed by LU (:func:`~repro.core._kernels.inverse`,
        counted flops).  Nothing is cached here.
        """
        i = torus_index(i, self.L)
        if self.inverses is None:
            return kr.inverse(self.B[i - 1])
        return self.inverses(i)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the normalized matrix ``M`` densely.

        Intended for oracles and small problems: the result is
        ``(N*L) x (N*L)``.
        """
        L, N = self.L, self.N
        M = np.zeros((N * L, N * L), dtype=self.dtype)
        eye = np.eye(N, dtype=self.dtype)
        for i in range(L):
            M[i * N : (i + 1) * N, i * N : (i + 1) * N] = eye
        if L == 1:
            # Degenerate single-block case: M = I + B_1.
            M[:N, :N] += self.B[0]
            return M
        M[:N, (L - 1) * N :] = self.B[0]
        for i in range(2, L + 1):
            r = (i - 1) * N
            c = (i - 2) * N
            M[r : r + N, c : c + N] = -self.B[i - 1]
        return M

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``M`` to a vector or block of vectors without forming ``M``.

        ``x`` has shape ``(N*L,)`` or ``(N*L, k)``.
        """
        L, N = self.L, self.N
        x = np.asarray(x)
        xb = x.reshape(L, N, -1)
        y = np.empty(xb.shape, dtype=np.result_type(xb, self.B))
        y[0] = xb[0] + self.B[0] @ xb[L - 1]
        y[1:] = xb[1:] - np.matmul(self.B[1:], xb[:-1])
        return y.reshape(x.shape)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Apply ``M^T`` (plain transpose) the same way as :meth:`matvec`.

        ``M^T`` has ``-B_{i+1}^T`` above the identity diagonal and the
        corner ``B_1^T`` at block ``(L, 1)``.
        """
        L, N = self.L, self.N
        x = np.asarray(x)
        xb = x.reshape(L, N, -1)
        y = np.empty(xb.shape, dtype=np.result_type(xb, self.B))
        y[:-1] = xb[:-1] - np.matmul(self.B[1:].transpose(0, 2, 1), xb[1:])
        y[L - 1] = xb[L - 1] + self.B[0].T @ xb[0]
        return y.reshape(x.shape)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def norm_blocks(self) -> np.ndarray:
        """Frobenius norm of each block, shape ``(L,)``."""
        return np.linalg.norm(self.B, axis=(1, 2))

    def memory_bytes(self) -> int:
        """Bytes held by the block storage."""
        return self.B.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockPCyclic(L={self.L}, N={self.N}, dtype={self.dtype},"
            f" {self.memory_bytes() / 2**20:.1f} MiB)"
        )


def pcyclic_from_general(
    diag: Sequence[np.ndarray],
    sub: Sequence[np.ndarray],
    corner: np.ndarray,
) -> tuple[BlockPCyclic, np.ndarray]:
    """Normalize a general block p-cyclic matrix ``A`` (Eq. (1)).

    Parameters
    ----------
    diag:
        The diagonal blocks ``A_11, ..., A_LL`` (each nonsingular).
    sub:
        The sub-diagonal blocks ``A_21, A_32, ..., A_{L,L-1}``
        (length ``L - 1``).
    corner:
        The corner block ``A_{1L}``.

    Returns
    -------
    (M, D):
        ``M`` is the normalized :class:`BlockPCyclic` with
        ``B_1 = A_11^{-1} A_1L`` and ``B_i = -A_ii^{-1} A_{i,i-1}``;
        ``D`` is the stacked diagonal ``(L, N, N)`` so that the inverse
        of the original matrix is ``A^{-1} = M^{-1} D^{-1}`` (apply
        ``D^{-1}`` blockwise on the right: column block ``j`` of
        ``A^{-1}`` is ``G[:, j] @ inv(A_jj)``).
    """
    import scipy.linalg as sla

    L = len(diag)
    if len(sub) != L - 1:
        raise ValueError(f"expected {L - 1} sub-diagonal blocks, got {len(sub)}")
    N = diag[0].shape[0]
    B = np.empty((L, N, N), dtype=np.result_type(diag[0], corner))
    B[0] = sla.solve(diag[0], corner)
    for i in range(2, L + 1):
        B[i - 1] = -sla.solve(diag[i - 1], sub[i - 2])
    D = np.ascontiguousarray(np.stack([np.asarray(d) for d in diag]))
    return BlockPCyclic(B), D


def random_pcyclic(
    L: int,
    N: int,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
    dtype: np.dtype | type = np.float64,
) -> BlockPCyclic:
    """A random, well-conditioned block p-cyclic matrix for tests.

    Blocks are Gaussian with entries of standard deviation
    ``scale / sqrt(N)`` so that ``||B_i||_2`` stays O(scale) as ``N``
    grows and ``M`` remains comfortably invertible for ``scale < 1``.
    """
    rng = np.random.default_rng(rng)
    B = rng.standard_normal((L, N, N)) * (scale / np.sqrt(N))
    return BlockPCyclic(B.astype(dtype, copy=False))
