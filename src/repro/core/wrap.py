"""WRP — the wrapping stage of FSI (Alg. 2).

CLS + BSOFI leave us with the ``b x b`` seed grid
``G~_{k0,l0} = G_{c*k0-q, c*l0-q}`` (Eq. (8)).  Wrapping grows each seed
into its ``c - 1`` missing neighbours with the adjacency relations of
Eqs. (4)-(7) until the requested selection pattern is covered:

* **COLUMNS** (S3): each seed expands *vertically*; following Alg. 2 the
  walk is split into an upward half (``ceil((c-1)/2)`` moves with
  ``B^{-1}``, Eq. (4)) and a downward half (``floor((c-1)/2)`` moves
  with ``B``, Eq. (5)) so that no block is more than ``~c/2``
  relation-applications away from an exact seed — this bounds the
  accumulated floating-point error, which is the stated reason the
  paper splits the loop.
* **ROWS** (S4): the transpose walk — leftward moves with ``B``
  (Eq. (6)) and rightward moves with ``B^{-1}`` (Eq. (7)).
* **DIAGONAL** (S1) / **SUBDIAGONAL** (S2): the seeds *are* the
  diagonal selection; the sub-diagonal follows with one rightward move
  per seed.
* **FULL_DIAGONAL**: every ``G_kk``; each diagonal seed walks along the
  diagonal (composed moves, Sec. II-A last paragraph:
  ``G_{k+1,l+1} = B_{k+1} G_kl B_{l+1}^{-1}``), again split up/down.

Note on loop bounds: Alg. 2 as printed walks ``ceil((c-1)/2)`` up and
``ceil(c/2)`` down, which for even ``c`` recomputes one block that the
next seed also produces.  We use ``ceil((c-1)/2)`` up / ``floor((c-1)/2)``
down — the same error radius, exact tiling, no duplicates.

**Panel formulation (COLUMNS / ROWS).**  The seed walks are
data-independent, and the ``b`` walks that start in one seed row move
in lockstep: every up-move out of row ``k`` multiplies by the same
``B_k^{-1}``, every down-move into row ``k + 1`` by the same
``B_{k+1}``.  So the ``b`` blocks of a block row form one panel and
each step is one batched gemm ``(N x N) . (N x bN)`` written straight
into the result buffer (ROWS: block-column panels, multiplied from the
right).  The boundary cases of :class:`~repro.core.adjacency.
AdjacencyOps` become slice updates: a seam crossing negates the shared
matrix, and the one block of a panel that starts or lands on the
diagonal gets ``-/+ B^{-1}`` or ``+I`` (``B^{-1}(G - I) = B^{-1}G -
B^{-1}``).  The up-moves use an explicit inverse, one per row
(:meth:`BlockPCyclic.inverse`: exact for a Hubbard matrix, else formed
by LU), rather than an LU solve: at ``N = 100`` one LU solve costs
about 356 us against 45 us for a gemm, and half the moves would
otherwise be solves.  A COLUMNS solve at ``L = 64, c = 8``
makes ``b (c-1)`` gemm calls plus ``b ceil((c-1)/2)`` inverses, where
the per-block walk made ``b^2 (c-1)``.

**Lock-step diagonal walks (FULL_DIAGONAL / SUBDIAGONAL).**  A
diagonal move is a similarity: ``G_{k-1,k-1} = B_k^{-1} G_kk B_k`` up
(Eq. (4) then (6)) and ``G_{k+1,k+1} = B_{k+1} G_kk B_{k+1}^{-1}`` down
(Eq. (5) then (7)); the identity shifts of the two boundary moves
cancel, and so do their seam signs.  The ``b`` seed walks are
independent and all take step ``s`` together, so each step is one
batched pair of gemms over the ``b`` walks (no two of them share a
``B``).  SUBDIAGONAL is one batched rightward move,
``G_{k,k+1} = (G_kk - I) B_{k+1}^{-1}``.

Every pattern reads the blocks and their inverses from the chain it
wraps (``pc.block``, ``pc.inverse``), and no walk applies one
``B_k^{-1}`` twice, so nothing is cached: an exact inverse costs
``O(N^2)``, a formed one one LU.  A spectral shift passes a chain that
scales both by its scalar (:mod:`repro.spectral.resolvent`).

Every pattern writes into one :class:`~repro.core.patterns.
SelectedInversion` buffer in ``block_indices()`` order.  WRP runs on
the calling thread: the thread team the diagonal walks once ran on was
no faster at 2 threads than at 1 (20-26 ms either way at paper scale on
a 2-core host, 1 BLAS thread).

The diagonal patterns read only the diagonal seeds ``G~_{k0,k0}``, so
they accept the band of a :class:`~repro.core.bsofi.SeedSet`; COLUMNS
and ROWS read its grid.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import runtime as _telemetry
from . import _kernels as kr
from .bsofi import GRID_PATTERNS, SeedSet
from .patterns import Pattern, SelectedInversion, Selection
from .pcyclic import BlockPCyclic, torus_index

__all__ = ["wrap", "wrap_flops"]


def _up_down_steps(c: int) -> tuple[int, int]:
    """Split the ``c - 1`` neighbour moves into (up, down) halves."""
    up = (c - 1 + 1) // 2  # ceil((c-1)/2)
    return up, (c - 1) - up


def wrap(
    pc: BlockPCyclic,
    G_seeds: np.ndarray | SeedSet,
    selection: Selection,
    num_threads: int | None = None,
) -> SelectedInversion:
    """Grow the seed grid into the requested selected inversion.

    Parameters
    ----------
    pc:
        The *original* (un-reduced) block p-cyclic matrix; wrapping
        moves use its blocks and their inverses (:meth:`~repro.core.
        pcyclic.BlockPCyclic.block`, :meth:`~repro.core.pcyclic.
        BlockPCyclic.inverse`).
    G_seeds:
        The ``(b, b, N, N)`` output of :func:`repro.core.bsofi.bsofi`
        on the CLS-reduced matrix, or the
        :func:`~repro.core.bsofi.bsofi_seeds` output for the pattern.
    selection:
        Pattern + ``(L, c, q)`` geometry.  Must be consistent with the
        seed grid shape (``b = L / c``).
    num_threads:
        Accepted and ignored: WRP runs on the calling thread, where a
        thread team measured no faster.  Kept so that existing callers,
        which pass a team size, run unchanged.

    Returns
    -------
    SelectedInversion
    """
    L, N = pc.L, pc.N
    c = selection.c
    b = L // c
    if selection.L != L:
        raise ValueError(f"selection L={selection.L} != matrix L={L}")
    if isinstance(G_seeds, np.ndarray):
        if G_seeds.shape != (b, b, N, N):
            raise ValueError(
                f"seed grid shape {G_seeds.shape} != expected {(b, b, N, N)}"
            )
        G_seeds = SeedSet(grid=G_seeds)
    pattern = selection.pattern
    # COLUMNS / ROWS walk from the whole grid, the rest from its diagonal.
    grid = pattern in GRID_PATTERNS
    seed_blocks = G_seeds.grid if grid else G_seeds.band.diag
    if seed_blocks.shape[0] != b:
        raise ValueError(f"{seed_blocks.shape[0]} seeds != expected b = {b}")
    dtype = np.result_type(seed_blocks.dtype, pc.dtype)
    out = SelectedInversion.empty(selection, (N, N), dtype)
    seeds = selection.seeds  # [c-q, 2c-q, ..., bc-q]
    up_steps, down_steps = _up_down_steps(c)

    if grid:
        with _telemetry.span("wrp.panels", panels=b, pattern=pattern.name):
            _panel_walks(pc, seed_blocks, selection, out, up_steps,
                         down_steps)
        return out

    diag = seed_blocks  # G~_{k0,k0}
    if pattern is Pattern.DIAGONAL:
        out.data[:] = diag
        return out

    if pattern is Pattern.SUBDIAGONAL:
        # One rightward move from each diagonal seed (skip k = L, whose
        # "sub-diagonal" would be the corner); slot t is the t-th kept.
        # k + 1 <= L, so no move crosses the seam.
        keep = [k0 for k0, k in enumerate(seeds) if k != L]
        S = diag[keep]
        S[:, np.arange(N), np.arange(N)] -= 1.0
        with _telemetry.span("wrp.subdiagonal", seeds=len(keep)):
            kr.gemm_into(out.data, S, [pc.inverse(seeds[k0] + 1) for k0 in keep])
        return out

    if pattern is Pattern.FULL_DIAGONAL:
        with _telemetry.span("wrp.full_diagonal", seeds=b):
            _diagonal_walks(pc, diag, selection, out, up_steps, down_steps)
        return out

    raise AssertionError(f"unhandled pattern {pattern}")  # pragma: no cover


def _panel_walks(
    pc: BlockPCyclic,
    G_seeds: np.ndarray,
    selection: Selection,
    out: SelectedInversion,
    up_steps: int,
    down_steps: int,
) -> None:
    """COLUMNS / ROWS: every seed row's (column's) walks as panel gemms.

    ``panels[:, r - 1]`` is the panel at block row ``r`` (COLUMNS: the
    ``b`` blocks ``G_{r, l}``, ``l`` in ``I``) or block column ``r``
    (ROWS: ``G_{k, r}``, ``k`` in ``I``) — a strided view of the buffer,
    which holds the blocks column (row) by column (row).
    """
    L, N = selection.L, out.N
    seeds = selection.seeds
    b = len(seeds)
    slot = {r: i for i, r in enumerate(seeds)}  # seed index -> panel entry
    panels = out.data.reshape(b, L, N, N)
    columns = selection.pattern is Pattern.COLUMNS

    def signed(M: np.ndarray, seam: bool) -> np.ndarray:
        return -M if seam else M

    for i, r in enumerate(seeds):
        panels[:, r - 1] = G_seeds[i] if columns else G_seeds[:, i]
        # Up (Eq. (4), B_rr^{-1} from the left) / left (Eq. (6), B_rr
        # from the right), from rr to rr - 1.
        rr = r
        for _ in range(up_steps):
            dst = torus_index(rr - 1, L)
            src, into = panels[:, rr - 1], panels[:, dst - 1]
            if columns:
                M = signed(pc.inverse(rr), rr == 1)
                kr.gemm_into(into, M, src)
                if rr in slot:  # started on the diagonal: B^{-1}(G - I)
                    into[slot[rr]] -= M
            else:
                M = signed(pc.block(rr), rr == 1)
                kr.gemm_into(into, src, M)
                if dst in slot:  # landed on the diagonal
                    kr.add_identity(into[slot[dst]])
            rr = dst
        # Down (Eq. (5), B_{rr+1} from the left) / right (Eq. (7),
        # B_{rr+1}^{-1} from the right), from rr to rr + 1.
        rr = r
        for _ in range(down_steps):
            dst = torus_index(rr + 1, L)
            src, into = panels[:, rr - 1], panels[:, dst - 1]
            if columns:
                M = signed(pc.block(dst), dst == 1)
                kr.gemm_into(into, M, src)
                if dst in slot:
                    kr.add_identity(into[slot[dst]])
            else:
                M = signed(pc.inverse(dst), dst == 1)
                kr.gemm_into(into, src, M)
                if rr in slot:  # started on the diagonal: (G - I) B^{-1}
                    into[slot[rr]] -= M
            rr = dst


def _diagonal_walks(
    pc: BlockPCyclic,
    diag: np.ndarray,
    selection: Selection,
    out: SelectedInversion,
    up_steps: int,
    down_steps: int,
) -> None:
    """FULL_DIAGONAL: the ``b`` seed walks in lock step.

    Slot ``k - 1`` of the buffer holds ``G_kk``, so the blocks the
    walks reach after each step are the strided view ``data[r::c]``.
    A step is two batched gemms from one such view into the next; when
    it crosses between slots ``L - 1`` and ``0`` (the torus seam) the
    walk at one end of the view lands at the other, so its source is
    rolled by one.
    """
    L, c = selection.L, selection.c
    data = out.data
    r0 = c - 1 - selection.q  # slot of the first seed, G_{c-q, c-q}
    data[r0::c] = diag
    tmp = np.empty(diag.shape, dtype=data.dtype)
    for steps, d in ((up_steps, -1), (down_steps, 1)):
        r = r0
        for _ in range(steps):
            src = data[r::c]
            r += d
            if not 0 <= r < c:
                r %= c
                src = np.roll(src, d, axis=0)
            ks = range(r + 1, L + 1, c)  # the G_kk this step produces
            if d < 0:  # G_kk = B_{k+1}^{-1} G_{k+1,k+1} B_{k+1}
                js = [torus_index(k + 1, L) for k in ks]
                left = [pc.inverse(j) for j in js]
                right = [pc.block(j) for j in js]
            else:  # G_kk = B_k G_{k-1,k-1} B_k^{-1}
                left = [pc.block(k) for k in ks]
                right = [pc.inverse(k) for k in ks]
            kr.gemm_into(tmp, left, src)
            kr.gemm_into(data[r::c], tmp, right)


def wrap_flops(L: int, N: int, c: int, pattern: Pattern) -> float:
    """Closed-form wrapping cost (Sec. II-C).

    ``b`` block columns/rows need ``bL - b^2`` new blocks at ~``3 N^3``
    each (one move per block); the diagonal patterns
    need at most one move per seed.
    """
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    b = L // c
    if pattern is Pattern.DIAGONAL:
        return 0.0
    if pattern is Pattern.SUBDIAGONAL:
        return 3.0 * b * N**3
    if pattern in (Pattern.COLUMNS, Pattern.ROWS):
        return 3.0 * (b * L - b * b) * N**3
    if pattern is Pattern.FULL_DIAGONAL:
        return 2.0 * 3.0 * (L - b) * N**3  # two moves per new diagonal block
    raise ValueError(f"unhandled pattern {pattern}")
