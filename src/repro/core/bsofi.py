"""BSOFI — block structured orthogonal factorisation inversion.

The second stage of FSI inverts the reduced ``b``-block p-cyclic matrix
``M~`` by the structured QR method of Gogolenko, Bai & Scalettar
(Euro-Par 2014, the paper's ref. [27]), reimplemented here from the
structure:

1. **Structured QR** ``M~ = Q R``: for ``i = 1 .. b-1`` a Householder
   QR of the stacked ``2N x N`` panel ``[X_i; -B_{i+1}]`` annihilates
   the sub-diagonal block; applying ``Q_i^T`` to the two remaining
   nonzero columns in rows ``(i, i+1)`` creates the super-diagonal block
   ``R_{i,i+1}``, propagates fill down the last block column (the corner
   block ``B_1`` smears into ``R_{i,b}``), and produces the next active
   diagonal ``X_{i+1}``.  A final ``N x N`` QR triangularises ``X_b``.
   Only ``2N x N`` panels are ever factorised — never the ``(bN)^2``
   matrix — which is the point of the method.  Each panel's explicit
   ``Q_i`` comes from ``geqrt`` + ``gemqrt`` applied to the identity
   (:func:`repro.core._kernels.qr_full`): the same reflectors as
   ``geqrf``, in under half the ``geqrf`` + ``orgqr`` time.
(For complex matrices every ``Q^T`` below is the conjugate transpose
``Q^H`` — the implementation is dtype-generic.)

2. **The full inverse** (:func:`bsofi`, the paper's ``7 b^2 N^3``):
   structured back-substitution for ``R^{-1}`` — row ``i`` of ``R`` has
   nonzeros only at ``(i,i)``, ``(i,i+1)`` and ``(i,b)``, so the full
   upper-triangular ``R^{-1}`` costs one triangular inversion plus at
   most two gemms per block — then ``G~ = R^{-1} Q_b^T Q_{b-1}^T ...
   Q_1^T``, each factor a ``2N``-column block rotation.

3. **The band only** (:func:`bsofi_band`, ``O(b N^3)``; indices
   0-based here, ``Q = Q_0 Q_1 ... Q_{b-2} Q_f``): the blocks of ``G~``
   on the sparsity pattern of ``M~`` — the diagonal ``G~_ii``, the
   super-diagonal ``G~_{i-1,i}`` and the corner ``G~_{b-1,0}`` — follow
   from one backward recurrence over the factors.
   With ``P = Q_{i-1}^H`` and ``T_i = R^{-1} Q_f^H Q_{b-2}^H ... Q_i^H``
   (the right factors applied down to ``i``), row ``i`` of ``T_i`` is
   zero left of column ``i``; call its block at column ``i`` ``S_i``,
   and the block of row ``b-1`` there ``F_i``.  Row ``i-1`` of
   ``R X = I`` gives row ``i-1`` of ``T_i`` on columns ``(i-1, i)`` as
   ``R_{i-1,i-1}^{-1} [I, -Z]`` with ``Z = R_{i-1,i} S_i (+ R_{i-1,b-1}
   F_i`` for rows above ``b-2``), and ``P`` is the last factor that
   touches column ``i``:

       ``S_{b-1} = F_{b-1} = R_{b-1,b-1}^{-1} Q_f^H``
       ``G~_ii = S_i P[N:, N:]``
       ``[S_{i-1} | G~_{i-1,i}] = R_{i-1,i-1}^{-1} (P[:N, :] - Z P[N:, :])``
       ``F_{i-1} = F_i P[N:, :N]``,   ``G~_00 = S_0``,  corner ``= F_0``

   — five gemms and one ``trsm`` per step, ``~14 b N^3`` in all against
   ``7 b^2 N^3`` (:func:`bsofi_band_flops`).  This is the idea of
   PSelInv (Jacquelin, Lin & Yang): compute the inverse only on the
   factor's sparsity pattern.

:func:`bsofi_seeds` picks between the two by pattern.  WRP grows the
DIAGONAL, SUBDIAGONAL and FULL_DIAGONAL selections from the diagonal
seeds alone and the guards' identity residual reads exactly the band,
so those patterns get the band; only COLUMNS and ROWS walk from every
seed ``G~_{k0,l0}`` and need the grid.  The grid of a band solve is
completed from the retained factors if and when someone reads it
(:class:`SeedSet`).

Orthogonal transforms keep the factorisation backward stable even for
the ill-conditioned products that CLS produces at low temperature —
this is why the paper pairs CLS with BSOFI instead of an LU inversion
(see ``benchmarks/exp_a2_bsofi_stability.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..telemetry import runtime as _telemetry
from . import _kernels as kr
from .patterns import Pattern
from .pcyclic import BlockPCyclic

__all__ = [
    "bsofi",
    "bsofi_qr",
    "bsofi_band",
    "bsofi_seeds",
    "GRID_PATTERNS",
    "StructuredQR",
    "SeedBand",
    "SeedSet",
    "bsofi_flops",
    "bsofi_qr_flops",
    "bsofi_band_flops",
]

#: The patterns whose wrapping walks from every seed of the grid.
GRID_PATTERNS = frozenset({Pattern.COLUMNS, Pattern.ROWS})


@dataclass
class StructuredQR:
    """The structured factors ``M~ = Q R``.

    Attributes
    ----------
    Rd:
        Diagonal blocks ``R_ii`` (upper triangular), shape ``(b, N, N)``.
    Ru:
        Super-diagonal blocks ``R_{i,i+1}``, shape ``(b-1, N, N)``.
    Rc:
        Last-column fill ``R_{i,b}`` for ``i <= b-3`` (0-based rows
        ``0 .. b-3``), shape ``(max(b-2, 0), N, N)``.  For row ``b-2``
        the super-diagonal *is* the last column and lives in ``Ru``.
    Q:
        Panel factors ``Q_i`` (each ``2N x 2N``), shape ``(b-1, 2N, 2N)``.
    Qf:
        Final ``N x N`` factor triangularising the last diagonal.
    """

    Rd: np.ndarray
    Ru: np.ndarray
    Rc: np.ndarray
    Q: np.ndarray
    Qf: np.ndarray

    @property
    def b(self) -> int:
        return self.Rd.shape[0]

    @property
    def N(self) -> int:
        return self.Rd.shape[1]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.Rd, self.Ru, self.Rc, self.Q, self.Qf))

    def to_dense_r(self) -> np.ndarray:
        """Materialise ``R`` densely (tests/diagnostics)."""
        b, N = self.b, self.N
        R = np.zeros((b * N, b * N), dtype=self.Rd.dtype)
        for i in range(b):
            R[i * N : (i + 1) * N, i * N : (i + 1) * N] = self.Rd[i]
        for i in range(b - 1):
            R[i * N : (i + 1) * N, (i + 1) * N : (i + 2) * N] = self.Ru[i]
        for i in range(max(b - 2, 0)):
            R[i * N : (i + 1) * N, (b - 1) * N :] = self.Rc[i]
        return R

    def to_dense_q(self) -> np.ndarray:
        """Materialise ``Q = Q_1 Q_2 ... Q_{b-1} Q_b`` densely (tests)."""
        b, N = self.b, self.N
        dtype = self.Q.dtype
        Qfull = np.eye(b * N, dtype=dtype)
        for i in range(b - 1):
            E = np.eye(b * N, dtype=dtype)
            E[i * N : (i + 2) * N, i * N : (i + 2) * N] = self.Q[i]
            Qfull = Qfull @ E
        E = np.eye(b * N, dtype=dtype)
        E[(b - 1) * N :, (b - 1) * N :] = self.Qf
        return Qfull @ E


def bsofi_qr(pc: BlockPCyclic) -> StructuredQR:
    """Structured QR factorisation of a block p-cyclic matrix.

    ``pc`` is typically the CLS-reduced matrix (``b`` blocks); the
    factorisation never forms the dense matrix.
    """
    b, N = pc.L, pc.N
    if b < 2:
        raise ValueError("bsofi_qr needs at least 2 block rows; use bsofi()")
    dtype = pc.dtype
    # All factors in one allocation, each Q_i formed in its slot and each
    # panel factored in place in one column-major scratch.  With separate
    # arrays and per-panel temporaries the allocator handed back fresh
    # pages on every call: about 1,100 page faults, a third of the QR
    # time at N = 100.
    sizes = (4 * (b - 1), b, b - 1, max(b - 2, 0))  # in N x N blocks
    Q, Rd, Ru, Rc = np.split(
        np.empty((sum(sizes), N, N), dtype=dtype), np.cumsum(sizes)[:-1]
    )
    Q = Q.reshape(b - 1, 2 * N, 2 * N)
    panel = np.empty((2 * N, N), dtype=dtype, order="F")

    X = np.eye(N, dtype=dtype)          # active diagonal block
    C = np.array(pc.block(1), copy=True)  # last-column fill (starts as B_1)
    for i in range(b - 1):
        panel[:N] = X
        np.negative(pc.block(i + 2), out=panel[N:])  # -B_{i+2} (1-based)
        Qi, Rfull = kr.qr_full(panel, out=Q[i], overwrite_a=True)
        Rd[i] = Rfull[:N]
        QiT = Qi.conj().T
        if i < b - 2:
            # Trailing columns: (i+1) holding [0; I] and the last column
            # holding [C; 0].
            T1 = QiT[:, N:]  # == Qi^T @ [0; I]
            Ru[i] = T1[:N]
            X = T1[N:]
            T2 = kr.gemm(QiT[:, :N], C)  # == Qi^T @ [C; 0]
            Rc[i] = T2[:N]
            C = T2[N:]
        else:
            # i == b-2: the trailing column *is* the last column, holding
            # [C; I] (fill above, diagonal below).
            T = kr.gemm(QiT[:, :N], C)
            T[:N] += QiT[:N, N:]
            T[N:] += QiT[N:, N:]
            Ru[i] = T[:N]
            X = T[N:]
    Qf, Rlast = kr.qr_full(X)
    Rd[b - 1] = Rlast
    return StructuredQR(Rd=Rd, Ru=Ru, Rc=Rc, Q=Q, Qf=Qf)


def _r_inverse(f: StructuredQR) -> np.ndarray:
    """``R^{-1}`` as a ``(b, b, N, N)`` block array (upper triangular fill)."""
    b, N = f.b, f.N
    X = np.zeros((b, b, N, N), dtype=f.Rd.dtype)
    Tinv = [kr.triangular_inverse(f.Rd[i]) for i in range(b)]
    for j in range(b):
        X[j, j] = Tinv[j]
    # Last column, bottom-up: rows i <= b-3 see both Ru and Rc fill.
    for i in range(b - 2, -1, -1):
        acc = kr.gemm(f.Ru[i], X[i + 1, b - 1])
        if i < b - 2:
            acc += kr.gemm(f.Rc[i], X[b - 1, b - 1])
        X[i, b - 1] = -kr.gemm(Tinv[i], acc)
    # Interior columns: only the super-diagonal couples rows.
    for j in range(b - 2, 0, -1):
        for i in range(j - 1, -1, -1):
            X[i, j] = -kr.gemm(Tinv[i], kr.gemm(f.Ru[i], X[i + 1, j]))
    return X


def _apply_qt(G: np.ndarray, f: StructuredQR) -> np.ndarray:
    """``G @ Q^T`` in place of the block array ``G`` (``(b, b, N, N)``)."""
    b, N = f.b, f.N
    # Final factor first: G[:, b-1] <- G[:, b-1] @ Qf^H.
    G[:, b - 1] = kr.batched_gemm(G[:, b - 1], f.Qf.conj().T)
    # Then the panel factors in reverse: columns (i, i+1) rotate together.
    for i in range(b - 2, -1, -1):
        W = np.concatenate((G[:, i], G[:, i + 1]), axis=2)  # (b, N, 2N)
        W = kr.batched_gemm(W, f.Q[i].conj().T)
        G[:, i] = W[:, :, :N]
        G[:, i + 1] = W[:, :, N:]
    return G


def _grid(f: StructuredQR) -> np.ndarray:
    """The full ``(b, b, N, N)`` inverse from the factors."""
    with _telemetry.span("bsofi.rinv"):
        G = _r_inverse(f)
    with _telemetry.span("bsofi.applyqt"):
        return _apply_qt(G, f)


def _single_block_inverse(pc: BlockPCyclic) -> np.ndarray:
    """``(I + B_1)^{-1}`` as a ``(1, 1, N, N)`` grid (``b = 1``)."""
    A = np.array(pc.block(1), copy=True)
    kr.add_identity(A)
    return kr.solve(A, np.eye(pc.N, dtype=pc.dtype))[None, None]


def bsofi(pc: BlockPCyclic) -> np.ndarray:
    """Full inverse of a block p-cyclic matrix via structured QR.

    Returns the blocks of ``G~ = M~^{-1}`` as a ``(b, b, N, N)`` array
    (``G[k0-1, l0-1]`` is the 1-based block ``G~_{k0, l0}``).
    """
    return bsofi_seeds(pc, Pattern.COLUMNS).grid


@dataclass
class SeedBand:
    """The blocks of ``G~`` on the sparsity pattern of ``M~`` (0-based).

    Attributes
    ----------
    diag:
        ``G~_{i,i}``, shape ``(b, N, N)``.
    upper:
        ``G~_{i,i+1}``, shape ``(b-1, N, N)``.
    corner:
        ``G~_{b-1,0}``, shape ``(N, N)`` (for ``b = 1`` the one block).
    """

    diag: np.ndarray
    upper: np.ndarray
    corner: np.ndarray

    @classmethod
    def of_grid(cls, G: np.ndarray) -> "SeedBand":
        """The band of a ``(b, b, N, N)`` grid (copies of its blocks)."""
        b = G.shape[0]
        r = np.arange(b)
        return cls(diag=G[r, r], upper=G[r[:-1], r[1:]], corner=G[b - 1, 0])

    @property
    def b(self) -> int:
        return self.diag.shape[0]

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.diag, self.upper, self.corner

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.arrays)


def bsofi_band(f: StructuredQR) -> SeedBand:
    """The band of ``G~ = R^{-1} Q^H`` from the structured factors.

    The backward recurrence of the module docstring: per step five
    gemms (at most ``N x N x 2N``) and one ``trsm``, ``O(b N^3)`` in all.
    """
    b, N = f.b, f.N
    diag = np.empty((b, N, N), dtype=f.Rd.dtype)
    upper = np.empty((b - 1, N, N), dtype=f.Rd.dtype)
    S = F = kr.triangular_solve(f.Rd[b - 1], f.Qf.conj().T)
    for i in range(b - 1, 0, -1):
        P = f.Q[i - 1].conj().T
        Z = kr.gemm(f.Ru[i - 1], S)
        if i - 1 <= b - 3:  # rows above b-2 carry last-column fill
            Z += kr.gemm(f.Rc[i - 1], F)
        kr.gemm_into(diag[i], S, P[N:, N:])
        W = P[:N] - kr.gemm(Z, P[N:])
        W = kr.triangular_solve(f.Rd[i - 1], W)
        S = W[:, :N]
        upper[i - 1] = W[:, N:]
        F = kr.gemm(F, P[N:, :N])
    diag[0] = S
    return SeedBand(diag=diag, upper=upper, corner=F)


class SeedSet:
    """BSOFI's output for one reduced matrix: the band, and the grid.

    Built from a grid, or from a band plus a callable that completes the
    grid: the callable runs on the first read of :attr:`grid`, as the
    ``"bsofi.grid"`` :func:`repro.telemetry.stage`, and its result is
    cached.
    ``held`` is the byte count the callable keeps alive until then.
    """

    __slots__ = ("_band", "_grid", "_complete", "_held")

    def __init__(
        self,
        band: SeedBand | None = None,
        grid: np.ndarray | None = None,
        complete: Callable[[], np.ndarray] | None = None,
        held: int = 0,
    ):
        if grid is None and complete is None:
            raise ValueError("a SeedSet needs a grid or a way to complete it")
        self._band = band
        self._grid = grid
        self._complete = complete
        self._held = held

    @property
    def band(self) -> SeedBand:
        if self._band is None:
            self._band = SeedBand.of_grid(self.grid)
        return self._band

    @property
    def grid_ready(self) -> bool:
        """Whether the grid has been computed."""
        return self._grid is not None

    @property
    def grid(self) -> np.ndarray:
        """The ``(b, b, N, N)`` inverse of the reduced matrix."""
        if self._grid is None:
            assert self._complete is not None
            with _telemetry.stage("bsofi.grid"):
                self._grid = self._complete()
            self._complete, self._held = None, 0
        return self._grid

    @property
    def nbytes(self) -> int:
        """Bytes held: the band and the grid, or what completes it."""
        band = 0 if self._band is None else self._band.nbytes
        return band + (self._held if self._grid is None else self._grid.nbytes)

    def take(self, pos: list[int]) -> "SeedSet":
        """The seed set of the rows and columns ``pos`` of this grid
        (sliced on first read)."""
        return SeedSet(
            complete=lambda: np.ascontiguousarray(self.grid[np.ix_(pos, pos)]),
            held=self.nbytes,
        )


def bsofi_seeds(pc: BlockPCyclic, pattern: Pattern) -> SeedSet:
    """The BSOFI output that wrapping ``pattern`` needs.

    COLUMNS and ROWS get the full grid.  The other patterns get the band
    (:func:`bsofi_band`); their grid is completed from the retained
    factors on first read.
    """
    if pc.L == 1:
        return SeedSet(grid=_single_block_inverse(pc))
    with _telemetry.span("bsofi.qr", b=pc.L, N=pc.N):
        f = bsofi_qr(pc)
    if pattern in GRID_PATTERNS:
        return SeedSet(grid=_grid(f))
    with _telemetry.span("bsofi.band"):
        band = bsofi_band(f)
    return SeedSet(band=band, complete=lambda: _grid(f),
                   held=band.nbytes + f.nbytes)


def bsofi_flops(b: int, N: int) -> float:
    """Closed-form BSOFI cost ``7 b^2 N^3`` (Sec. II-C)."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return 7.0 * b * b * N**3


def bsofi_qr_flops(b: int, N: int) -> float:
    """Counted cost of :func:`bsofi_qr` (``b >= 2``).

    Per ``2N x N`` panel: the QR with its explicit ``2N x 2N`` ``Q``
    (``14 N^3`` by the :mod:`~repro.core._kernels` conventions) and one
    ``2N x N x N`` gemm (``4 N^3``); then the ``N x N`` QR of the last
    diagonal (``8/3 N^3``).
    """
    if b < 2:
        raise ValueError(f"bsofi_qr needs b >= 2, got {b}")
    return (18.0 * (b - 1) + 8.0 / 3.0) * N**3


def bsofi_band_flops(b: int, N: int) -> float:
    """Counted cost of the band solve: :func:`bsofi_qr` + :func:`bsofi_band`.

    The recurrence costs ``N^3`` for its start (a ``trsm``) and, per
    step, ``12 N^3`` (gemms of ``2, 2, 4, 2`` and a ``2N``-column
    ``trsm`` of ``2 N^3``) plus ``2 N^3`` for the last-column fill on
    the ``b - 2`` steps that have it: ``(14 b - 15) N^3``.  For ``b = 1``
    the single-block solve (LU and ``N`` right-hand sides, ``8/3 N^3``).
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if b == 1:
        return 8.0 / 3.0 * N**3
    return bsofi_qr_flops(b, N) + (14.0 * b - 15.0) * N**3
