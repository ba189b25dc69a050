"""Baselines the paper compares FSI against.

* :func:`full_lu_inverse` — the "MKL" baseline of Sec. V-A/V-B: form
  the dense ``(NL) x (NL)`` matrix and invert it with LAPACK
  (``DGETRF`` + ``DGETRI``).  Exact, but ``O((NL)^3)`` flops and
  ``O((NL)^2)`` memory — the memory wall is what motivates selected
  inversion in the first place.
* :func:`lu_selected_inversion` — the same baseline restricted to a
  selection (invert fully, keep the selected blocks), which is how a
  plain-LAPACK DQMC code obtains off-diagonal blocks.
* The *explicit form* baseline (compute the selection directly from
  Eq. (3)) lives in :func:`repro.core.greens_explicit.explicit_selected_columns`.

All baselines route through the instrumented kernels so their flop
counts land on the active tracer under the stage label ``"lu"``.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import runtime as _telemetry
from . import _kernels as kr
from .patterns import SelectedInversion, Selection
from .pcyclic import BlockPCyclic

__all__ = [
    "full_lu_inverse",
    "lu_selected_inversion",
    "dense_block",
    "full_lu_flops",
]


def full_lu_inverse(pc: BlockPCyclic) -> np.ndarray:
    """Dense ``G = M^{-1}`` via pivoted LU (the DGETRF/DGETRI baseline)."""
    with _telemetry.stage("lu"):
        M = pc.to_dense()
        n = M.shape[0]
        f = kr.lu_factor(M)
        # DGETRI cost dominates; kernels count the n^2-rhs solve.
        G = f.solve(np.eye(n, dtype=pc.dtype))
    return G


def dense_block(G: np.ndarray, k: int, l: int, N: int) -> np.ndarray:
    """Extract 1-based block ``(k, l)`` from a dense block matrix."""
    return G[(k - 1) * N : k * N, (l - 1) * N : l * N]


def lu_selected_inversion(
    pc: BlockPCyclic, selection: Selection
) -> SelectedInversion:
    """Selected inversion by full dense LU then extraction.

    Matches FSI output bit-for-bit in *shape*; used as the oracle in the
    correctness validation (Sec. V-A) and as the memory-hungry baseline
    in the benchmarks.
    """
    G = full_lu_inverse(pc)
    N = pc.N
    blocks = {
        (k, l): np.ascontiguousarray(dense_block(G, k, l, N))
        for (k, l) in selection.block_indices()
    }
    return SelectedInversion(selection, blocks, N)


def full_lu_flops(L: int, N: int) -> float:
    """``DGETRF + DGETRI`` cost ``~2 (NL)^3`` flops."""
    n = N * L
    return 2.0 * float(n) ** 3
