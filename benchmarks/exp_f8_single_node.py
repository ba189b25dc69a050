"""EXP-F8 — Fig. 8: single-node FSI performance and thread scalability.

Top plot: per-stage and aggregate Gflop/s of the OpenMP FSI versus the
MKL-threaded execution, for N in {256, 400, 576, 784, 1024} at
(L, c) = (100, 10) on one 12-core Ivy Bridge socket.  Paper anchors:
FSI ~180 Gflop/s at large N (~80% above the ~100 Gflop/s baseline),
with BSOFI the slow stage compensated by the dgemm-rich CLS and WRP.

Bottom plot: Gflop/s vs thread count (1-12) for OpenMP, MKL and ideal
scaling at (N, L, c) = (576, 100, 10): OpenMP tracks ideal closely,
MKL flattens to ~half.

Modeled numbers come from :mod:`repro.perf.model` (Edison machine
model); a scaled-down *real* run on this host is printed alongside so
the stage-cost split can be checked against actual wall clock.

Run: ``python benchmarks/exp_f8_single_node.py``
"""

from __future__ import annotations

from repro.bench.harness import run_fsi
from repro.bench.report import Series, Table, banner
from repro.bench.workloads import FIG8_SIZES, make_hubbard, Workload
from repro.core.patterns import Pattern
from repro.perf.model import fsi_profile, scaling_curve


def fig8_top(L: int = 100, c: int = 10, threads: int = 12) -> Table:
    table = Table(
        f"EXP-F8 (top): modeled Gflop/s on 12-core Ivy Bridge,"
        f" (L, c) = ({L}, {c})",
        ["N", "CLS", "BSOFI", "WRP", "FSI total", "MKL total", "FSI/MKL"],
        note="paper anchors: FSI ~180, MKL ~100 at large N (80% gap)",
    )
    for N in FIG8_SIZES:
        omp = fsi_profile(N, L, c, threads, "openmp")
        mkl = fsi_profile(N, L, c, threads, "mkl")
        table.add_row(
            N,
            omp["cls"].gflops,
            omp["bsofi"].gflops,
            omp["wrp"].gflops,
            omp["total"].gflops,
            mkl["total"].gflops,
            omp["total"].gflops / mkl["total"].gflops,
        )
    return table


def fig8_bottom(N: int = 576, L: int = 100, c: int = 10) -> Series:
    sc = scaling_curve(N, L, c)
    series = Series(
        f"EXP-F8 (bottom): modeled scalability, (N, L, c) = ({N}, {L}, {c})",
        "threads",
        [int(t) for t in sc["threads"]],
    )
    for name in ("ideal", "openmp", "mkl"):
        series.add_line(name, [round(v, 1) for v in sc[name]])
    return series


def real_stage_split(seed: int = 3) -> Table:
    """Measured stage flops/time on this host (scaled problem)."""
    w = Workload("f8-real", nx=6, ny=6, L=40, c=8, U=2.0, beta=1.0)
    pc, _, _ = make_hubbard(w, seed=seed)
    run = run_fsi(pc, w.c, Pattern.COLUMNS, q=1)
    table = Table(
        f"EXP-F8 (real, this host): stage split at (N, L, c) ="
        f" ({w.N}, {w.L}, {w.c})",
        ["stage", "flops", "seconds", "Gflop/s"],
        note="shape check: CLS/WRP run near gemm rate, BSOFI below",
    )
    for stage in ("cls", "bsofi", "wrp"):
        fl = run.stage_flops.get(stage, 0.0)
        se = run.stage_seconds.get(stage, 0.0)
        table.add_row(stage, fl, se, fl / se / 1e9 if se else 0.0)
    table.add_row("total", run.flops, run.seconds, run.gflops)
    return table


if __name__ == "__main__":
    from repro.bench.ascii_chart import line_chart
    from repro.perf.model import scaling_curve

    print(banner("EXP-F8: single-node performance & scalability (Fig. 8)"))
    fig8_top().print()
    fig8_bottom().print()
    sc = scaling_curve(576, 100, 10)
    print(line_chart(
        sc["threads"],
        {"ideal": sc["ideal"], "openmp": sc["openmp"], "mkl": sc["mkl"]},
        y_label="Gflop/s",
    ))
    print()
    real_stage_split().print()
