"""Numerical-stability analysis for the cluster size ``c``.

The paper (Sec. II-C, citing Bai et al. [26]) notes that the cluster
size trades reduction against precision: each clustered block is a
product of ``c`` slice matrices whose singular-value spread grows
exponentially with ``c`` (for Hubbard matrices, like ``e^{~c dtau U}``
and worse at low temperature), so a large ``c`` loses digits in CLS.
The recommendation is ``c ~ sqrt(L)``.

This module quantifies that trade-off for a given matrix:

* :func:`cluster_condition_growth` — the conditioning of the clustered
  blocks as a function of ``c``;
* :func:`fsi_accuracy_sweep` — end-to-end selected-inversion error
  versus ``c`` against a dense-LU oracle;
* :func:`recommend_c` — the largest divisor of ``L`` not exceeding
  ``round(sqrt(L))`` (the paper's usual choice, e.g. ``c = 10`` for
  ``L = 100``).

``benchmarks/exp_a1_cluster_size.py`` turns these into the ablation
table promised in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import full_lu_inverse
from .cls import cls
from .fsi import fsi
from .patterns import Pattern
from .pcyclic import BlockPCyclic

__all__ = [
    "divisors",
    "recommend_c",
    "cluster_condition_growth",
    "fsi_accuracy_sweep",
    "AccuracyPoint",
]


def divisors(L: int) -> list[int]:
    """All positive divisors of ``L``, ascending."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    small, large = [], []
    d = 1
    while d * d <= L:
        if L % d == 0:
            small.append(d)
            if d != L // d:
                large.append(L // d)
        d += 1
    return small + large[::-1]


def recommend_c(L: int) -> int:
    """The paper's rule of thumb: largest divisor of ``L`` with ``c <= sqrt(L)``.

    (For ``L = 100`` this gives ``c = 10``, matching every experiment in
    Sec. V.)
    """
    best = 1
    for d in divisors(L):
        if d * d <= L:
            best = d
    return best


def cluster_condition_growth(
    pc: BlockPCyclic, c_values: list[int] | None = None
) -> dict[int, float]:
    """Worst 2-norm condition number of the clustered blocks, per ``c``.

    Uses ``q = 0`` throughout (the offset permutes which slices land in
    which cluster but not the growth rate).
    """
    if c_values is None:
        c_values = [c for c in divisors(pc.L) if c < pc.L]
    out: dict[int, float] = {}
    for c in c_values:
        if pc.L % c != 0:
            raise ValueError(f"c={c} does not divide L={pc.L}")
        red = cls(pc, c, q=0)
        out[c] = float(max(np.linalg.cond(red.B[i]) for i in range(red.L)))
    return out


@dataclass(frozen=True)
class AccuracyPoint:
    """One point of the accuracy-vs-``c`` sweep."""

    c: int
    b: int
    max_rel_error: float
    worst_cluster_cond: float
    fsi_flops: float


def fsi_accuracy_sweep(
    pc: BlockPCyclic,
    c_values: list[int] | None = None,
    pattern: Pattern = Pattern.COLUMNS,
    q: int = 0,
) -> list[AccuracyPoint]:
    """End-to-end FSI error vs. cluster size against a dense-LU oracle.

    The oracle is computed once; each ``c`` runs the full
    CLS -> BSOFI -> WRP pipeline.  Suitable for moderate sizes (the
    oracle is dense).
    """
    from .flops import fsi_table_flops

    if c_values is None:
        c_values = [c for c in divisors(pc.L) if 1 < c < pc.L]
    G_dense = full_lu_inverse(pc)
    cond = cluster_condition_growth(pc, c_values)
    points = []
    for c in c_values:
        res = fsi(pc, c, pattern=pattern, q=min(q, c - 1))
        points.append(
            AccuracyPoint(
                c=c,
                b=pc.L // c,
                max_rel_error=res.selected.max_relative_error(G_dense),
                worst_cluster_cond=cond[c],
                fsi_flops=fsi_table_flops(pc.L, pc.N, c, pattern),
            )
        )
    return points
