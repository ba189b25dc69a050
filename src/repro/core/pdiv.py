"""PDIV — divide-and-conquer distributed selected inversion.

PSelInv-style parallelism for the block p-cyclic chain: split the ``L``
time slices into ``P`` contiguous partitions, invert each partition
*locally* with the existing structured-QR machinery, and stitch the
partition boundaries with a small Woodbury capacitance system — the
same SMW identity the delta-update path uses (:mod:`repro.core.smw`),
here applied to the ``P`` bridge couplings instead of to HS flips.

The splitting
-------------
Slicing the stacked blocks ``B[lo_p-1:hi_p]`` of the global matrix
directly yields a *local* block p-cyclic matrix ``M~_p`` whose corner
block is ``+B_{lo_p}``.  The global ``M`` differs from
``blockdiag(M~_1..M~_P)`` by one rank-``N`` correction per partition::

    M = M~ + U V^T,
    U_p   = e_{lo_p} (x) B_{lo_p},
    V_p^T = s_p (e_{hi_{p-1}}^T (x) I) - (e_{hi_p}^T (x) I),

with ``s_1 = +1`` (the true corner ``+B_1``) and ``s_p = -1`` for
``p >= 2`` (the severed sub-diagonal coupling ``-B_{lo_p}``); the
second term cancels the spurious local corner.  Woodbury then gives

    G = G~ - X C^{-1} Y^T,   X = M~^{-1} U,   Y^T = V^T G~,
    C = I_{PN} + V^T X,

where every factor is *partition-local*: block column ``p`` of ``X``
is one structured solve on ``M~_p``; block row ``p`` of ``Y^T`` needs
only the last block row ``R_p`` of each local inverse (one transpose
solve, :meth:`~repro.core.solve.PCyclicSolver.solve_transpose`, from
the same local factorisation); and ``C`` is a ``PN x PN`` block-cyclic
capacitance assembled from the last slice of each ``X_p``.  With
``P = 1`` the correction vanishes identically and PDIV degenerates to
a plain structured solve.

Distribution
------------
:func:`fsi_distributed` partitions the chain across the ranks of a
:mod:`repro.transport` world (any backend): the root scatters the
``B`` slices, each rank factors and solves its partitions locally, the
small pieces (``X_p``, ``R_p``, and the requested in-partition blocks)
are gathered back, and the root solves the capacitance system and
applies the bridge corrections.  Only ``O(L N^2 / P)`` data per rank
crosses the wire — never a dense inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..telemetry import runtime as _telemetry
from ..telemetry.flops import record_flops
from ..transport import CommStats, create_world
from . import _kernels as kr
from .patterns import Pattern, SelectedInversion, Selection
from .pcyclic import BlockPCyclic
from .pipeline import cluster_offset
from .solve import PCyclicSolver

__all__ = [
    "PDIVReport",
    "PDIVResult",
    "fsi_distributed",
    "partition_bounds",
]


def partition_bounds(L: int, partitions: int) -> list[tuple[int, int]]:
    """Near-equal contiguous 1-based inclusive ``[lo, hi]`` chunks."""
    if not 1 <= partitions <= L:
        raise ValueError(
            f"partitions={partitions} must lie in [1, L={L}]"
        )
    base, rem = divmod(L, partitions)
    bounds = []
    lo = 1
    for p in range(partitions):
        hi = lo + base + (1 if p < rem else 0) - 1
        bounds.append((lo, hi))
        lo = hi + 1
    return bounds


@dataclass
class PDIVReport:
    """Accounting of one distributed selected inversion."""

    bounds: list[tuple[int, int]]
    backend: str
    ranks: int
    capacitance_cond: float
    comm: CommStats | None = None

    @property
    def partitions(self) -> int:
        return len(self.bounds)


@dataclass
class PDIVResult:
    """Selected blocks of ``G`` plus the PDIV accounting."""

    selected: SelectedInversion
    selection: Selection
    report: PDIVReport = field(compare=False, default=None)  # type: ignore[assignment]


@dataclass
class _PartitionPieces:
    """What one partition contributes to the stitch (all small)."""

    lo: int
    hi: int
    X: np.ndarray                      # (L_p, N, N) bridge column M~^{-1} U_p
    R: np.ndarray                      # (L_p, N, N) last block row of G~_p
    cols: dict[int, np.ndarray]        # local col index -> (L_p, N, N)
    rows: dict[int, np.ndarray]        # local row index -> (L_p, N, N)


def _partition_work(
    B_slice: np.ndarray,
    need_cols: Sequence[int],
    need_rows: Sequence[int],
    lo: int,
    hi: int,
) -> _PartitionPieces:
    """Factor one partition and produce its stitch pieces.

    All right-hand sides go through one structured QR factorisation
    (``M~ x`` and ``M~^T y`` solves alike), batched into single
    multi-RHS solves — ``O(L_p N^3)`` to factor, ``O(L_p N^2)`` per RHS.
    """
    local = BlockPCyclic(np.ascontiguousarray(B_slice))
    Lp, N = local.L, local.N
    dtype = local.dtype
    eye = np.eye(N, dtype=dtype)
    solver = PCyclicSolver(local)

    def t_solve(rhs_blocks: np.ndarray) -> np.ndarray:
        """``M~^T Y = rhs`` for ``(L_p, N, k)`` blocks."""
        y = solver.solve_transpose(rhs_blocks.reshape(Lp * N, -1))
        return y.reshape(Lp, N, -1)

    # Bridge column X_p = M~^{-1} (e_1 (x) B_lo).
    rhs = np.zeros((Lp * N, N), dtype=dtype)
    rhs[:N] = B_slice[0]
    X = solver.solve(rhs).reshape(Lp, N, N)

    # Last block row R_p[j] = (G~_p)_{L_p, j} via one transpose solve.
    rhs_t = np.zeros((Lp, N, N), dtype=dtype)
    rhs_t[Lp - 1] = eye
    Y = t_solve(rhs_t)
    R = np.ascontiguousarray(np.swapaxes(Y, 1, 2))

    cols: dict[int, np.ndarray] = {}
    if need_cols:
        idx = sorted(set(need_cols))
        many = np.zeros((Lp * N, len(idx) * N), dtype=dtype)
        for j, l_loc in enumerate(idx):
            many[(l_loc - 1) * N : l_loc * N, j * N : (j + 1) * N] = eye
        sol = solver.solve(many).reshape(Lp, N, len(idx), N)
        cols = {
            l_loc: np.ascontiguousarray(sol[:, :, j, :])
            for j, l_loc in enumerate(idx)
        }

    rows: dict[int, np.ndarray] = {}
    if need_rows:
        idx = sorted(set(need_rows))
        many_t = np.zeros((Lp, N, len(idx) * N), dtype=dtype)
        for j, k_loc in enumerate(idx):
            many_t[k_loc - 1, :, j * N : (j + 1) * N] = eye
        sol = t_solve(many_t).reshape(Lp, N, len(idx), N)
        rows = {
            k_loc: np.ascontiguousarray(np.swapaxes(sol[:, :, j, :], 1, 2))
            for j, k_loc in enumerate(idx)
        }

    nrhs = N * (2 + len(cols) + len(rows))
    record_flops((13 / 3) * Lp * N**3 + 8.0 * Lp * N * N * nrhs)
    return _PartitionPieces(lo=lo, hi=hi, X=X, R=R, cols=cols, rows=rows)


def _rank_partitions(P: int, size: int, rank: int) -> range:
    """Blockwise assignment of partitions to ranks."""
    base, rem = divmod(P, size)
    lo = rank * base + min(rank, rem)
    return range(lo, lo + base + (1 if rank < rem else 0))


def _pdiv_rank_work(comm, pc, bounds, needs):
    """Rank body: scatter B slices, solve local partitions, gather."""
    P = len(bounds)
    if comm.rank == 0:
        batches = []
        for r in range(comm.size):
            batch = []
            for p in _rank_partitions(P, comm.size, r):
                lo, hi = bounds[p]
                batch.append(
                    (p, np.ascontiguousarray(pc.B[lo - 1 : hi]), needs[p])
                )
            batches.append(batch)
    else:
        batches = None
    mine = comm.scatter(batches, root=0)

    out = []
    for p, B_slice, (need_cols, need_rows) in mine:
        lo, hi = bounds[p]
        with _telemetry.span("pdiv.partition", p=p, lo=lo, hi=hi):
            out.append((p, _partition_work(B_slice, need_cols, need_rows, lo, hi)))
    gathered = comm.gather(out, root=0)
    if comm.rank != 0:
        return None
    return {p: piece for rank_out in gathered for p, piece in rank_out}


def _locate(bounds: list[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Global slice -> (partition index 0-based, 1-based local index)."""
    where = {}
    for p, (lo, hi) in enumerate(bounds):
        for g in range(lo, hi + 1):
            where[g] = (p, g - lo + 1)
    return where


def fsi_distributed(
    pc: BlockPCyclic,
    c: int,
    pattern: Pattern = Pattern.COLUMNS,
    q: int | None = None,
    rng: np.random.Generator | int | None = None,
    partitions: int | None = None,
    ranks: int | None = None,
    transport: str | None = None,
    timeout: float | None = 300.0,
) -> PDIVResult:
    """Distributed selected inversion of a block p-cyclic matrix.

    Agrees with :func:`~repro.core.fsi.fsi` on every selected block to
    solver precision (both paths are backward-stable structured
    solves; the conformance tolerance is 1e-10).

    Parameters
    ----------
    pc, c, pattern, q, rng:
        As for :func:`~repro.core.fsi.fsi` (``c``/``q`` fix the seed
        set of the selection; PDIV's partitioning is independent of
        ``c``).
    partitions:
        Number of contiguous chain partitions ``P`` (default: 4,
        clamped to ``L``).  ``P = 1`` is the exact degenerate case.
    ranks:
        Transport world size (default: one rank per partition).
        ``ranks = 1`` computes all partitions inline without spawning
        a world.
    transport:
        Backend name for :func:`repro.transport.create_world`
        (default: the ``REPRO_TRANSPORT`` environment variable).
    """
    L, N = pc.L, pc.N
    q = cluster_offset(L, c, q, rng)
    selection = Selection(pattern, L=L, c=c, q=q)

    P = min(partitions if partitions is not None else 4, L)
    bounds = partition_bounds(L, P)
    where = _locate(bounds)
    n_ranks = max(1, min(ranks if ranks is not None else P, P))

    # Which in-partition entries of the local inverses the selection
    # needs: ROWS wants whole block rows (one transpose solve each);
    # everything else is cheapest by block columns.
    wanted = selection.block_indices()
    needs: list[tuple[list[int], list[int]]] = [([], []) for _ in range(P)]
    row_mode = pattern is Pattern.ROWS
    for k, l in wanted:
        (p_k, k_loc), (p_l, l_loc) = where[k], where[l]
        if p_k != p_l:
            continue
        if row_mode:
            needs[p_k][1].append(k_loc)
        else:
            needs[p_l][0].append(l_loc)

    with _telemetry.stage(
        "pdiv", L=L, N=N, partitions=P, ranks=n_ranks, pattern=pattern.name
    ):
        world = None
        if n_ranks == 1:
            parts = {}
            for p, (lo, hi) in enumerate(bounds):
                with _telemetry.span("pdiv.partition", p=p, lo=lo, hi=hi):
                    parts[p] = _partition_work(
                        pc.B[lo - 1 : hi], needs[p][0], needs[p][1], lo, hi
                    )
        else:
            world = create_world(n_ranks, backend=transport)
            results = world.run(
                _pdiv_rank_work, pc, bounds, needs, timeout=timeout
            )
            parts = results[0]
            assert parts is not None

        with _telemetry.span("pdiv.stitch", partitions=P):
            selected, cond = _stitch(
                pc, bounds, where, parts, selection, row_mode
            )

    report = PDIVReport(
        bounds=bounds,
        backend=world.name if world is not None else "inline",
        ranks=n_ranks,
        capacitance_cond=cond,
        comm=world.stats if world is not None else None,
    )
    return PDIVResult(selected=selected, selection=selection, report=report)


def _stitch(
    pc: BlockPCyclic,
    bounds: list[tuple[int, int]],
    where: dict[int, tuple[int, int]],
    parts: dict[int, _PartitionPieces],
    selection: Selection,
    row_mode: bool,
) -> tuple[SelectedInversion, float]:
    """Solve the capacitance system and apply the bridge corrections,
    writing each selected block into its slot of the result."""
    N = pc.N
    P = len(bounds)
    dtype = pc.dtype
    eye = np.eye(N, dtype=dtype)

    # C = I + V^T X, assembled from the last local slice of each X_p:
    # diagonal blocks I - Xl_p; sub-diagonal (p, p-1) gets -Xl_{p-1};
    # the corner (1, P) gets +Xl_P (the s_1 = +1 true-corner coupling).
    C = np.zeros((P * N, P * N), dtype=dtype)
    for p in range(P):
        Xl = parts[p].X[-1]
        C[p * N : (p + 1) * N, p * N : (p + 1) * N] = eye - Xl
        nxt = (p + 1) % P
        sign = 1.0 if nxt == 0 else -1.0
        if nxt != p:  # P == 1: the two couplings cancel exactly
            C[nxt * N : (nxt + 1) * N, p * N : (p + 1) * N] += sign * Xl
    cond = float(np.linalg.cond(C)) if P > 1 else 1.0
    clu = kr.lu_factor(C)

    # One capacitance solve per distinct selected column l: the only
    # nonzero block rows of Y^T e_l come from R_{p_l} (rows p_l and its
    # cyclic successor), so S_l = C^{-1} Y^T e_l costs O((PN)^2 N).
    wanted = selection.block_indices()
    S: dict[int, np.ndarray] = {}
    for l in sorted({l for _, l in wanted}):
        p_l, l_loc = where[l]
        Rl = parts[p_l].R[l_loc - 1]
        ycol = np.zeros((P * N, N), dtype=dtype)
        ycol[p_l * N : (p_l + 1) * N] -= Rl
        nxt = (p_l + 1) % P
        sign = 1.0 if nxt == 0 else -1.0
        ycol[nxt * N : (nxt + 1) * N] += sign * Rl
        S[l] = clu.solve(ycol).reshape(P, N, N)
        record_flops(2.0 * (P * N) ** 2 * N)

    out = SelectedInversion.empty(selection, (N, N), dtype)
    for i, (k, l) in enumerate(wanted):
        (p_k, k_loc), (p_l, l_loc) = where[k], where[l]
        corr = kr.gemm(parts[p_k].X[k_loc - 1], S[l][p_k])
        if p_k == p_l:
            piece = parts[p_k]
            base = (
                piece.rows[k_loc][l_loc - 1]
                if row_mode
                else piece.cols[l_loc][k_loc - 1]
            )
            np.subtract(base, corr, out=out.data[i])
        else:
            np.negative(corr, out=out.data[i])
    return out, cond
