"""EXP-A3 — ablation: selected inversion vs probing for tr(G) / diag(G).

Sec. I relates FSI to the probing/sketching family (refs. [13]-[16]):
both produce functions of ``M^{-1}`` without full inversion.  This
ablation quantifies the trade on one Hubbard matrix:

* FSI FULL_DIAGONAL gives the *exact* trace and diagonal at a fixed
  ``O((2(c-1) + 7b) b N^3)`` cost;
* Hutchinson probing gives an *estimate* whose error decays like
  ``sigma / sqrt(n_probes)``, each probe one ``O(L N^2)`` structured
  solve after an ``O(L N^3)`` factorisation.

The printed table shows measured flops and errors as the probe budget
grows — probing wins for 1-2 digits, selected inversion wins when the
diagonal itself (or many digits) is needed.

Run: ``python benchmarks/exp_a3_trace.py``
"""

from __future__ import annotations


from repro.apps.trace import exact_trace, hutchinson_trace
from repro.bench.report import Table, banner
from repro.core.solve import PCyclicSolver
from repro.hubbard.matrix import build_hubbard_matrix
from repro.telemetry import FlopTracer


def run(nx: int = 6, L: int = 32, c: int = 8, seed: int = 0) -> Table:
    M, _, _ = build_hubbard_matrix(nx, nx, L=L, U=2.0, beta=1.0, rng=seed)

    with FlopTracer() as t_exact:
        exact = exact_trace(M, c=c)

    table = Table(
        f"EXP-A3: tr(G) on a (N, L) = ({M.N}, {L}) Hubbard matrix,"
        f" exact = {exact:.6f}",
        ["method", "flops", "estimate", "abs error", "rel error"],
        note="probing error ~ 1/sqrt(n); FSI is exact at fixed cost and"
        " also yields the full diagonal",
    )
    table.add_row("FSI full diagonal", t_exact.total_flops, exact, 0.0, 0.0)

    with FlopTracer() as t_factor:
        solver = PCyclicSolver(M)
    factor_flops = t_factor.total_flops
    for n_probes in (4, 16, 64, 256):
        with FlopTracer() as t_probe:
            r = hutchinson_trace(M, n_probes=n_probes, rng=seed + 1, solver=solver)
        err = r.error_vs(exact)
        table.add_row(
            f"Hutchinson n={n_probes}",
            factor_flops + t_probe.total_flops,
            r.estimate,
            err,
            err / abs(exact),
        )
    return table


if __name__ == "__main__":
    print(banner("EXP-A3: selected inversion vs probing for the trace"))
    run().print()
