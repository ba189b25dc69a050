"""Sherman–Morrison/Woodbury delta updates of selected inversions.

Sweep-shaped DQMC traffic rarely asks for independent Green's
functions: consecutive Hubbard–Stratonovich configurations differ by a
handful of single-site flips.  A flip at time slice ``l``, site ``i``
rescales column ``i`` of the block ``B_l`` by ``d = e^{s nu (h' - h)}``
— an *exact* rank-1 perturbation of ``B_l`` and hence of the block
p-cyclic matrix ``M``.  Batching ``r`` flips gives

    ``M' = M + U V^T``            (``U, V`` of shape ``(L N, r)``),

and the Woodbury identity updates any block of ``G' = M'^{-1}`` from
the corresponding block of ``G = M^{-1}``:

    ``G' = G - X C^{-1} Y^T``,  ``X = M^{-1} U``,  ``Y = M^{-T} V``,
    ``C = I_r + V^T X``.

``X`` and ``Y`` cost ``O(L N^2)`` per right-hand side through the
structured QR factorisation of :class:`~repro.core.solve.PCyclicSolver`
(backward stable — never an unstabilised ``L``-fold product), so a
cached selected block is refreshed for ``O(r N^2)`` flops instead of a
full ``O(b L N^3)`` FSI solve.  Per Bauer ("Fast and stable determinant
QMC"), long chains of low-rank updates accumulate error; callers should
bound the chain depth and re-solve from scratch when
:attr:`DeltaReport.solve_residual` or the capacitance conditioning
trips (the service's rank/depth budgets and residual guard do exactly
this — see ``docs/incremental.md``).

The module also hosts :class:`FactorPairs`, the generic rank-``k``
factor-pair accumulator (``A_current = A + U W^T``) generalised out of
the delayed DQMC updates of :mod:`repro.dqmc.delayed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import numpy.typing as npt

from ..telemetry.flops import record_flops
from . import _kernels as kr
from .patterns import BlockArray
from .pcyclic import BlockPCyclic, torus_index
from .solve import PCyclicSolver

__all__ = [
    "FactorPairs",
    "RankOneFlip",
    "diag_flips",
    "transpose_pcyclic",
    "DeltaReport",
    "PCyclicWoodbury",
]


class FactorPairs:
    """Accumulated rank-1 factor pairs: ``A_current = A + U W^T``.

    The delayed-update primitive of production DQMC codes (QUEST),
    factored out so both the Metropolis sweep
    (:class:`~repro.dqmc.delayed.DelayedGreens`) and the Woodbury
    serving path share one implementation: pairs are appended one at a
    time, entries of the *current* (pending-included) matrix are
    reconstructed in ``O(n k)``, and :meth:`flush_into` folds the whole
    batch into the dense matrix with a single BLAS-3 gemm.
    """

    def __init__(self, n: int, capacity: int,
                 dtype: npt.DTypeLike = np.float64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n = n
        self.capacity = capacity
        self._U = np.empty((n, capacity), dtype=dtype)
        self._W = np.empty((n, capacity), dtype=dtype)
        self._k = 0

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of accumulated, unflushed rank-1 pairs."""
        return self._k

    @property
    def is_full(self) -> bool:
        return self._k == self.capacity

    def append(self, u: np.ndarray, w: np.ndarray) -> None:
        """Record one rank-1 pair ``u w^T``."""
        if self.is_full:
            raise ValueError(f"factor-pair buffer full (capacity {self.capacity})")
        self._U[:, self._k] = u
        self._W[:, self._k] = w
        self._k += 1

    # -- O(n k) reconstruction of current entries -----------------------
    def diag_correction(self, i: int) -> float:
        """Pending correction to entry ``(i, i)``."""
        if not self._k:
            return 0.0
        return float(self._U[i, : self._k] @ self._W[i, : self._k])

    def col_correction(self, i: int) -> np.ndarray | float:
        """Pending correction to column ``i`` (``U W[i, :]^T``)."""
        if not self._k:
            return 0.0
        record_flops(2.0 * self.n * self._k)
        return self._U[:, : self._k] @ self._W[i, : self._k]

    def row_correction(self, i: int) -> np.ndarray | float:
        """Pending correction to row ``i`` (``W U[i, :]^T``)."""
        if not self._k:
            return 0.0
        record_flops(2.0 * self.n * self._k)
        return self._W[:, : self._k] @ self._U[i, : self._k]

    # ------------------------------------------------------------------
    def flush_into(self, A: np.ndarray) -> None:
        """``A += U W^T`` as one gemm, then reset the buffers."""
        if self._k == 0:
            return
        k = self._k
        A += kr.gemm(
            np.ascontiguousarray(self._U[:, :k]),
            np.ascontiguousarray(self._W[:, :k].T),
        )
        self._k = 0

    def reset(self) -> None:
        self._k = 0


# ----------------------------------------------------------------------
# rank-1 structure of an HS-field flip
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RankOneFlip:
    """One column rescaling ``B_l[:, i] <- d * B_l[:, i]`` of a block.

    ``slice_index`` is 1-based (matching :meth:`BlockPCyclic.block`);
    ``site`` is the 0-based column.  For a Hubbard HS flip the scale is
    ``d = e^{s nu (h' - h)}`` — the potential factor is diagonal, so
    the perturbation ``(d - 1) B_l[:, i] e_i^T`` is exact, not a
    linearisation.
    """

    slice_index: int
    site: int
    scale: float


def diag_flips(
    h_base: np.ndarray, h_new: np.ndarray, coupling: float
) -> list[RankOneFlip]:
    """The exact rank-1 flip list between two ``(L, N)`` Ising fields.

    ``coupling`` is the exponent prefactor ``s * nu`` of the potential
    ``e^{s nu h(l, i)}`` (any slice-constant diagonal shift, e.g.
    ``e^{dtau mu}``, cancels in the ratio).  Entries must be ``+-1``;
    each differing entry contributes one :class:`RankOneFlip` with
    ``d = e^{coupling * (h_new - h_base)}``.
    """
    h_base = np.asarray(h_base)
    h_new = np.asarray(h_new)
    if h_base.shape != h_new.shape or h_base.ndim != 2:
        raise ValueError(
            f"field shapes must match and be (L, N):"
            f" {h_base.shape!r} vs {h_new.shape!r}"
        )
    rows, cols = np.nonzero(h_base != h_new)
    return [
        RankOneFlip(
            slice_index=int(l) + 1,
            site=int(i),
            scale=float(
                np.exp(coupling * (float(h_new[l, i]) - float(h_base[l, i])))
            ),
        )
        for l, i in zip(rows, cols)
    ]


def transpose_pcyclic(pc: BlockPCyclic) -> BlockPCyclic:
    """The reversal-similarity image of ``M^T`` as a :class:`BlockPCyclic`.

    ``M^T`` has identity diagonal, *super*-diagonal blocks
    ``-B_{i+1}^T`` and corner ``(M^T)_{L1} = B_1^T`` — not directly
    representable.  Conjugating with the block-order reversal ``P``
    restores the normal form: ``P M^T P`` is block p-cyclic with

        ``B'_1 = B_1^T``,  ``B'_i = B_{L+2-i}^T``  (``i = 2..L``),

    so ``M^T y = v  <=>  (P M^T P)(P y) = P v`` — one extra structured
    QR factorisation buys stable transpose solves.
    """
    L = pc.L
    Bt = np.empty_like(pc.B)
    Bt[0] = pc.B[0].T
    for i in range(2, L + 1):
        Bt[i - 1] = pc.block(L + 2 - i).T
    return BlockPCyclic(Bt)


# ----------------------------------------------------------------------
# the Woodbury updater
# ----------------------------------------------------------------------

@dataclass
class DeltaReport:
    """Diagnostics of one Woodbury application (the delta-path guards).

    ``solve_residual`` is the worst relative residual of the two
    structured solves (``max(|M X - U|, |M^T Y - V|) / |rhs|``) —
    backward-stable solves keep it near machine epsilon, so anything
    large means the base matrix is too ill-conditioned for the update
    and the caller should fall back to a fresh solve.
    ``capacitance_cond`` is the condition of the ``r x r`` capacitance
    ``C = I + V^T X`` relative to its two terms,
    ``(1 + |V^T X|_2) / sigma_min(C)``: at least the 2-norm condition
    number of ``C``, and unlike it not identically 1 for ``r = 1``, where
    a ``C`` that cancels to rounding level is the near-singular case.  A
    near-singular ``C`` means the flip batch nearly annihilates ``M'``
    (Metropolis would reject such a move, but a *served* result must
    never be built on it).
    """

    rank: int
    solve_residual: float
    capacitance_cond: float

    def healthy(self, residual_tol: float, cond_limit: float) -> bool:
        return (
            np.isfinite(self.solve_residual)
            and np.isfinite(self.capacitance_cond)
            and self.solve_residual <= residual_tol
            and self.capacitance_cond <= cond_limit
        )


class PCyclicWoodbury:
    """Factor-once rank-``k`` updater for one base matrix ``M``.

    Holds the two structured QR factorisations (``M`` and the reversed
    transpose) so that every subsequent flip batch against the same
    base costs ``O(L N^2 r)`` — the serving layer keeps a small LRU of
    these per cached base fingerprint.
    """

    def __init__(self, pc: BlockPCyclic) -> None:
        self.pc = pc
        self.L = pc.L
        self.N = pc.N
        self._forward = PCyclicSolver(pc)
        self._pc_t = transpose_pcyclic(pc)
        self._adjoint = PCyclicSolver(self._pc_t)

    # ------------------------------------------------------------------
    def _factors(self, flips: Sequence[RankOneFlip]) -> tuple[np.ndarray, np.ndarray]:
        """Assemble ``U, V`` with ``M' - M = U V^T`` (shape ``(L, N, r)``)."""
        L, N = self.L, self.N
        r = len(flips)
        U = np.zeros((L, N, r), dtype=self.pc.dtype)
        V = np.zeros((L, N, r), dtype=self.pc.dtype)
        for j, flip in enumerate(flips):
            l = torus_index(flip.slice_index, L)
            if not 0 <= flip.site < N:
                raise ValueError(f"site {flip.site} outside [0, {N})")
            delta = flip.scale - 1.0
            column = self.pc.block(l)[:, flip.site]
            # M holds -B_l at block (l, l-1) for l >= 2 and +B_1 at
            # (1, L): the sign of the perturbation follows the slot.
            sign = 1.0 if l == 1 else -1.0
            U[l - 1, :, j] = sign * delta * column
            V[torus_index(l - 1, L) - 1, flip.site, j] = 1.0
        return U, V

    def solve(self, rhs_blocks: np.ndarray) -> np.ndarray:
        """``M X = rhs`` for ``rhs`` of shape ``(L, N, r)``."""
        L, N = self.L, self.N
        flat = rhs_blocks.reshape(L * N, -1)
        return self._forward.solve(flat).reshape(L, N, -1)

    def solve_transpose(self, rhs_blocks: np.ndarray) -> np.ndarray:
        """``M^T Y = rhs`` via the reversed-transpose factorisation."""
        L, N = self.L, self.N
        reversed_rhs = rhs_blocks[::-1].reshape(L * N, -1)
        y = self._adjoint.solve(np.ascontiguousarray(reversed_rhs))
        return y.reshape(L, N, -1)[::-1]

    # ------------------------------------------------------------------
    def update_blocks(
        self,
        blocks: Mapping[tuple[int, int], np.ndarray],
        flips: Sequence[RankOneFlip],
    ) -> tuple[BlockArray, DeltaReport]:
        """Woodbury-update cached blocks of ``G`` to blocks of ``G'``.

        ``blocks`` maps 1-based ``(k, l)`` to the *base* block
        ``G_kl`` (a :class:`~repro.core.patterns.BlockArray`, or any
        mapping, which is stacked into one); the return value is a
        block array of the same type and keys holding ``G'_kl`` for the
        perturbed matrix, plus the :class:`DeltaReport` the caller's
        guards consume.  An empty flip list returns a copy.

        Flip positions ``(slice, site)`` must be distinct: repeated
        rescalings of one column compose multiplicatively, not
        additively (:func:`diag_flips` produces one flip per differing
        entry, which satisfies this by construction).
        """
        L = self.L
        r = len(flips)
        base: BlockArray = (
            blocks if isinstance(blocks, BlockArray)
            else BlockArray.from_mapping(blocks)
        )
        if r == 0:
            return (
                base.with_data(base.data.copy()),
                DeltaReport(rank=0, solve_residual=0.0, capacitance_cond=1.0),
            )
        U, V = self._factors(flips)
        X = self.solve(U)
        Y = self.solve_transpose(V)

        # Residuals of both structured solves, via matvec (O(L N^2 r)).
        flat = lambda A: A.reshape(L * self.N, -1)  # noqa: E731
        res_fwd = np.linalg.norm(self.pc.matvec(flat(X)) - flat(U))
        res_adj = np.linalg.norm(
            self._pc_t.matvec(np.ascontiguousarray(flat(Y[::-1])))
            - flat(V[::-1])
        )
        scale = max(np.linalg.norm(flat(U)), np.linalg.norm(flat(V)), 1e-300)
        residual = float(max(res_fwd, res_adj) / scale)

        # Capacitance C = I + V^T X: V's columns are unit vectors, so
        # V^T X just gathers rows of X.
        VtX = np.empty((r, r), dtype=X.dtype)
        for j, flip in enumerate(flips):
            m = torus_index(flip.slice_index - 1, L) - 1
            VtX[j, :] = X[m, flip.site, :]
        C = VtX + np.eye(r)
        cond = np.inf
        if np.all(np.isfinite(C)):
            with np.errstate(all="ignore"):
                smin = np.linalg.svd(C, compute_uv=False)[-1]
                cond = float((1.0 + np.linalg.norm(VtX, 2)) / smin)
        report = DeltaReport(
            rank=r, solve_residual=residual, capacitance_cond=cond,
        )
        if not np.isfinite(cond):
            return base.with_data(base.data.copy()), report

        # T_l = C^{-1} Y_l^T, shared across every row of block column l:
        # one LAPACK solve for all L block columns, then one batched
        # matmul for every cached block — no per-block Python kernels.
        Cf = kr.lu_factor(C)
        T = Cf.solve(np.ascontiguousarray(Y.reshape(L * self.N, r).T))
        T = np.ascontiguousarray(T.reshape(r, L, self.N).transpose(1, 0, 2))
        keys = np.array(list(base), dtype=np.intp).reshape(-1, 2) - 1
        deltas = np.matmul(X[keys[:, 0]], T[keys[:, 1]])
        record_flops(2.0 * len(keys) * self.N * self.N * r)
        return base.with_data(base.data - deltas), report
