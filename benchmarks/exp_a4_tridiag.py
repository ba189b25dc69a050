"""EXP-A4 — the future-work extension: FSI for block tridiagonal matrices.

The paper's conclusion proposes extending FSI to block tridiagonal
matrices; :mod:`repro.tridiag` implements it.  This experiment checks
the extension end to end on the NEGF-style Laplacian-chain workload:

* correctness of every pattern against a dense oracle;
* the flop advantage of the three-stage pipeline over a dense LU
  inversion restricted to the same selection;
* the parallel structure (independent runs / independent seed walks),
  shown as identical results for 1 vs 4 threads.

Run: ``python benchmarks/exp_a4_tridiag.py``
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.report import Table, banner
from repro.core.patterns import Pattern
from repro.telemetry import FlopTracer
from repro.tridiag import fsi_tridiagonal, laplacian_chain, random_btd


def correctness_table(L: int = 32, N: int = 12, c: int = 8) -> Table:
    J = laplacian_chain(L, N)
    G = np.linalg.inv(J.to_dense())
    table = Table(
        f"EXP-A4: block tridiagonal FSI, Laplacian chain (N, L, c) ="
        f" ({N}, {L}, {c})",
        ["pattern", "blocks", "max rel err", "threads-consistent"],
    )
    for pattern in Pattern:
        sel1 = fsi_tridiagonal(J, c, pattern=pattern, q=1, num_threads=1)
        sel4 = fsi_tridiagonal(J, c, pattern=pattern, q=1, num_threads=4)
        consistent = all(
            np.array_equal(sel1[kl], sel4[kl]) for kl in sel1
        )
        table.add_row(
            pattern.value, len(sel1), sel1.max_relative_error(G), consistent
        )
    return table


def cost_table(L: int = 48, N: int = 24, c: int = 8, seed: int = 1) -> Table:
    J = random_btd(L, N, np.random.default_rng(seed))
    table = Table(
        f"EXP-A4 (cost): b block columns at (N, L, c) = ({N}, {L}, {c})",
        ["method", "flops", "seconds (host)"],
        note="dense LU scales as (NL)^3; the structured pipeline as"
        " O(L N^3) + O(b^2 N^3)",
    )
    t0 = time.perf_counter()
    with FlopTracer() as t_fsi:
        fsi_tridiagonal(J, c, pattern=Pattern.COLUMNS, q=1, num_threads=1)
    dt_fsi = time.perf_counter() - t0

    t0 = time.perf_counter()
    with FlopTracer() as t_lu:
        Jd = J.to_dense()
        n = Jd.shape[0]
        from repro.core import _kernels as kr

        kr.lu_factor(Jd).solve(np.eye(n))
    dt_lu = time.perf_counter() - t0
    table.add_row("tridiagonal FSI", t_fsi.total_flops, dt_fsi)
    table.add_row("dense LU inverse", t_lu.total_flops, dt_lu)
    table.add_row(
        "advantage", t_lu.total_flops / t_fsi.total_flops, dt_lu / dt_fsi
    )
    return table


if __name__ == "__main__":
    print(banner("EXP-A4: FSI extended to block tridiagonal matrices"))
    correctness_table().print()
    cost_table().print()
