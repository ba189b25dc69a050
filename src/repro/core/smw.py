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

Both come from one structured QR
(:class:`~repro.core.solve.PCyclicSolver`) of the base request's own
CLS-reduced chain ``cls(M, c, q)``: ``b = L/c`` blocks, solved for the
cluster ends (``M^T`` via :meth:`~repro.core.solve.PCyclicSolver.
solve_transpose`), with the ``c - 1`` interior slices of each cluster
filled by the block recurrence — never a product longer than the
base's own clusters.  ``X`` and ``Y`` then cost ``O(L N^2)`` per
right-hand side, so a cached selected block is refreshed for
``O(r N^2)`` flops instead of a full ``O(b L N^3)`` FSI solve.  Per
Bauer ("Fast and stable determinant QMC"), long chains of low-rank updates accumulate error; callers should
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
from .cls import cls
from .patterns import BlockArray
from .pcyclic import BlockPCyclic, torus_index
from .solve import PCyclicSolver

__all__ = [
    "FactorPairs",
    "RankOneFlip",
    "diag_flips",
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


# ----------------------------------------------------------------------
# the Woodbury updater
# ----------------------------------------------------------------------

#: Relative residual on the unreduced chain above which a reduced solve
#: is refined: a thousand times what the unreduced QR solve leaves.
_REFINE_TOL = 1e-12
#: Most refinement steps per solve before the residual guard decides.
_REFINE_STEPS = 2


@dataclass
class DeltaReport:
    """Diagnostics of one Woodbury application (the delta-path guards).

    ``solve_residual`` is the worst relative residual of the two
    structured solves on the unreduced chain, after refinement
    (``max(|M X - U|, |M^T Y - V|) / |rhs|``) — backward-stable
    solves keep it near machine epsilon, so anything
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

    ``c`` and ``q`` are the base request's clustering (Eq. (8)): the
    state factors only the ``b = L/c`` block CLS-reduced chain
    ``M~ = cls(M, c, q)``, once, and that one structured QR answers
    both Woodbury solves.  ``M X = U`` accumulates ``U`` along each
    cluster, solves ``M~`` for the cluster ends and fills the ``c - 1``
    interior blocks by the recurrence ``x_k = B^_k x_{k-1} + u_k``
    (``B^_1 = -B_1`` carries the corner sign, ``B^_k = B_k`` else).
    ``M^T Y = V`` runs the same on the transposed recurrence: its Schur
    complement on the cluster ends is ``M~^T``, which
    :meth:`PCyclicSolver.solve_transpose` solves from the same QR.
    ``c = 1`` is the unreduced chain.  Every subsequent flip batch
    against the same base costs ``O(L N^2 r)``; the serving layer keeps
    a small LRU of these per cached base fingerprint.
    """

    def __init__(self, pc: BlockPCyclic, c: int = 1, q: int = 0) -> None:
        self.pc = pc
        self.L = pc.L
        self.N = pc.N
        self.c = c
        self.q = q
        self._reduced = PCyclicSolver(cls(pc, c, q))
        b = self.L // c
        # _idx[s, i]: 0-based slice of step s of 0-based cluster i (the
        # slices c i - q .. c i - q + c - 1 on the torus; step c - 1 is
        # the cluster end, the slice the reduced chain keeps).
        self._idx = (c * np.arange(b) + np.arange(c)[:, None] - q) % self.L
        self._steps: np.ndarray | None = None
        if c > 1:
            # B^ gathered step-major, so every recurrence step is one
            # batched matmul over the b clusters; slice 1 is step q of
            # cluster 0.  With c = 1 no step is taken.
            self._steps = pc.B[self._idx]
            self._steps[q, 0] *= -1.0

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

    def _step(self, s: int, x: np.ndarray, transpose: bool = False,
              live: np.ndarray | None = None) -> np.ndarray:
        """``B^ x`` (or ``B^T x``) at step ``s`` of every cluster, or of
        the ``live`` clusters only."""
        assert self._steps is not None
        B = self._steps[s] if live is None else self._steps[s, live]
        record_flops(2.0 * x.size * self.N)
        return np.matmul(B.transpose(0, 2, 1) if transpose else B, x)

    def _live(self, rhs: np.ndarray) -> np.ndarray | None:
        """The clusters with a nonzero right-hand side before their end
        slice (``None``: all of them).  Only these accumulate anything
        onto the cluster ends, so a flip batch that touches a few
        clusters skips the products of the rest."""
        live = np.flatnonzero(rhs[self._idx[:-1]].any(axis=(0, 2, 3)))
        return None if live.size == self._idx.shape[1] else live

    def _reduced_solve(self, rhs: np.ndarray, transpose: bool) -> np.ndarray:
        flat = rhs.reshape(-1, rhs.shape[-1])
        solve = (self._reduced.solve_transpose if transpose
                 else self._reduced.solve)
        return solve(flat).reshape(rhs.shape)

    def solve(self, rhs_blocks: np.ndarray) -> np.ndarray:
        """``M X = rhs`` for ``rhs`` of shape ``(L, N, r)``."""
        c, idx, u = self.c, self._idx, rhs_blocks
        acc = u[idx[c - 1]]
        live = self._live(u)
        at = slice(None) if live is None else live
        if c > 1 and (live is None or live.size):
            part = u[idx[0, at]]
            for s in range(1, c - 1):
                part = self._step(s, part, live=live) + u[idx[s, at]]
            part = self._step(c - 1, part, live=live)
            acc = acc.astype(np.result_type(acc, part), copy=False)
            acc[at] += part
        ends = self._reduced_solve(acc, transpose=False)
        x = np.empty(u.shape, dtype=ends.dtype)
        x[idx[c - 1]] = ends
        # Each cluster starts from the end of the one before it.
        prev = np.roll(ends, 1, axis=0)
        for s in range(c - 1):
            prev = self._step(s, prev) + u[idx[s]]
            x[idx[s]] = prev
        return x

    def solve_transpose(self, rhs_blocks: np.ndarray) -> np.ndarray:
        """``M^T Y = rhs`` from the same reduced factorisation."""
        c, idx, v = self.c, self._idx, rhs_blocks
        acc = v[idx[c - 1]]
        live = self._live(v)
        at = slice(None) if live is None else live
        if c > 1 and (live is None or live.size):
            # y_k = B^_{k+1}^T y_{k+1} + v_k runs backwards, so a
            # cluster's interior feeds the end of the cluster before it.
            tail = v[idx[c - 2, at]]
            for s in range(c - 2, 0, -1):
                tail = (self._step(s, tail, transpose=True, live=live)
                        + v[idx[s - 1, at]])
            head = self._step(0, tail, transpose=True, live=live)
            acc = acc.astype(np.result_type(acc, head), copy=False)
            if live is None:
                acc += np.roll(head, -1, axis=0)
            else:
                acc[(live - 1) % idx.shape[1]] += head
        ends = self._reduced_solve(acc, transpose=True)
        y = np.empty(v.shape, dtype=ends.dtype)
        y[idx[c - 1]] = ends
        nxt = ends
        for s in range(c - 2, -1, -1):
            nxt = self._step(s + 1, nxt, transpose=True) + v[idx[s]]
            y[idx[s]] = nxt
        return y

    def _refined(self, solve, apply, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """``solve(rhs)`` and the norm of its residual on the unreduced
        chain (``apply`` is ``M`` or ``M^T``, O(L N^2 r)).

        While the relative residual exceeds :data:`_REFINE_TOL`, up to
        :data:`_REFINE_STEPS` corrections ``x += solve(rhs - M x)`` are
        applied.  The reduced chain's rounding error scales with the
        spread of the cluster products, so at low temperature and large
        ``c`` one step takes a 1e-5 residual to ~1e-10; at ``c = 1`` and
        on well-conditioned chains the first residual already passes.
        """
        flat = rhs.reshape(self.L * self.N, -1)
        tol = _REFINE_TOL * max(float(np.linalg.norm(flat)), 1e-300)
        x = solve(rhs)
        steps = 0
        while True:
            res = flat - apply(x.reshape(flat.shape))
            norm = float(np.linalg.norm(res))
            if norm <= tol or steps == _REFINE_STEPS or not np.isfinite(norm):
                return x, norm
            x = x + solve(res.reshape(rhs.shape))
            steps += 1

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
        L, N = self.L, self.N
        r = len(flips)
        base: BlockArray = (
            blocks if isinstance(blocks, BlockArray)
            else BlockArray.from_mapping(blocks)
        )
        if r == 0:
            return base.with_data(base.data.copy()), DeltaReport(
                rank=0, solve_residual=0.0, capacitance_cond=1.0
            )
        U, V = self._factors(flips)
        X, res_fwd = self._refined(self.solve, self.pc.matvec, U)
        Y, res_adj = self._refined(self.solve_transpose, self.pc.rmatvec, V)
        scale = max(np.linalg.norm(U), np.linalg.norm(V), 1e-300)
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
        # one LAPACK solve for all L block columns, then one gemm per
        # cached block, written into the one output buffer.
        Cf = kr.lu_factor(C)
        T = Cf.solve(np.ascontiguousarray(Y.reshape(L * N, r).T))
        T = np.ascontiguousarray(T.reshape(r, L, N).transpose(1, 0, 2))
        keys = np.array(list(base), dtype=np.intp).reshape(-1, 2) - 1
        out = np.empty(base.data.shape, dtype=base.data.dtype)
        kr.gemm_acc(out, X[keys[:, 0]], T[keys[:, 1]], alpha=-1.0, c=base.data)
        return base.with_data(out), report
