"""EXP-F9 — Fig. 9: hybrid MPI x OpenMP sweep on 100 Edison nodes.

2400 Hubbard matrices, (L, c) = (100, 10), block sizes N in
{400, 576, 784, 1024}; configurations (ranks x threads) in
{200x12, 400x6, 800x3, 1200x2, 2400x1} saturating 2400 cores.

Paper anchors: pure MPI (2400x1) is fastest *but only fits in memory
for N = 400*; larger N are rescued by the hybrid model (more threads,
fewer ranks per node); aggregate rates 20-31 Tflop/s; the N = 576 pure-
MPI case needs 12 x ~2.65 GB per socket and OOMs.

The modeled sweep uses the Edison machine model; a functional
*scaled-down* SimMPI run (same Alg. 3 code path) is executed alongside
to demonstrate the decomposition-invariant reduction.

Run: ``python benchmarks/exp_f9_hybrid.py``
"""

from __future__ import annotations

from repro.bench.report import Table, banner
from repro.bench.workloads import FIG9_CONFIGS
from repro.core.patterns import Pattern
from repro.hubbard import HubbardModel, RectangularLattice
from repro.parallel.hybrid import HybridConfig, run_fsi_fleet
from repro.perf.model import hybrid_performance


def modeled_sweep(
    L: int = 100,
    c: int = 10,
    n_matrices: int = 2400,
    nodes: int = 100,
) -> Table:
    table = Table(
        f"EXP-F9: modeled Tflop/s on {nodes} Edison nodes,"
        f" {n_matrices} matrices, (L, c) = ({L}, {c})",
        ["N", "mem/rank GB"]
        + [f"{r}x{t}" for r, t in FIG9_CONFIGS],
        note="OOM = configuration exceeds socket memory (Sec. V-B);"
        " paper band 20-31 Tflop/s, pure MPI feasible only for N=400",
    )
    for N in (400, 576, 784, 1024):
        cells = []
        mem = None
        for ranks, threads in FIG9_CONFIGS:
            pt = hybrid_performance(
                N, L, c, ranks, threads, n_matrices, nodes=nodes
            )
            mem = pt.mem_per_rank_gb
            cells.append(round(pt.tflops, 1) if pt.feasible else "OOM")
        table.add_row(N, mem, *cells)
    return table


def functional_run() -> Table:
    """Scaled-down Alg. 3 on SimMPI: the real code path, one thread per
    rank (each rank's solver runs on its own thread)."""
    model = HubbardModel(RectangularLattice(3, 3), L=16, U=2.0, beta=1.0)
    table = Table(
        "EXP-F9 (functional, this host): Alg. 3 on SimMPI,"
        " 8 matrices, (N, L, c) = (9, 16, 4)",
        ["ranks", "trace_sum", "frobenius^2", "seconds", "peak MB"],
        note="global reductions identical across decompositions",
    )
    for ranks in (1, 2, 4, 8):
        rep = run_fsi_fleet(
            model,
            HybridConfig(
                n_matrices=8,
                n_ranks=ranks,
                c=4,
                pattern=Pattern.COLUMNS,
                seed=42,
            ),
        )
        table.add_row(
            ranks,
            rep.global_measurements["trace_sum"],
            rep.global_measurements["frobenius_sq"],
            rep.elapsed_seconds,
            rep.per_rank_peak_bytes / 2**20,
        )
    return table


def strong_scaling_table() -> Table:
    """Node-count scaling at fixed work (companion to the fixed-100-node
    sweep): near-ideal until one matrix per rank, then starved."""
    from repro.perf.model import strong_scaling_curve

    sc = strong_scaling_curve(576, 100, 10, 2400, threads_per_rank=2)
    table = Table(
        "EXP-F9 (companion): strong scaling, N=576, 2400 matrices,"
        " 2 threads/rank",
        ["nodes", "Tflop/s", "efficiency"],
        note="embarrassingly parallel until ranks outnumber matrices",
    )
    for n, t, e in zip(sc["nodes"], sc["tflops"], sc["efficiency"]):
        table.add_row(int(n), t, e)
    return table


if __name__ == "__main__":
    from repro.bench.ascii_chart import bar_chart

    print(banner("EXP-F9: hybrid MPI x OpenMP sweep (Fig. 9)"))
    modeled_sweep().print()
    pts = [
        hybrid_performance(576, 100, 10, r, t, 2400)
        for r, t in FIG9_CONFIGS
    ]
    print("N = 576 across configurations (OOM bars empty):")
    print(bar_chart(
        [f"{r}x{t}" for r, t in FIG9_CONFIGS],
        [p.tflops if p.feasible else 0.0 for p in pts],
        unit=" Tflop/s",
    ))
    print()
    strong_scaling_table().print()
    functional_run().print()
