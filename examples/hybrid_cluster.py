"""Parallel application of FSI to many Green's functions (Alg. 3).

Demonstrates the paper's hybrid execution model on the SimMPI runtime:

1. the root rank generates Hubbard-Stratonovich parameter buffers for a
   fleet of matrices and *scatters the parameters, not the matrices*;
2. every rank rebuilds its matrices locally and runs FSI on its own
   thread (the paper adds an OpenMP team per rank; here a 2-thread team
   measured no faster than one thread at paper scale on a 2-core host);
3. local measurement quantities are reduced to the root.

The same workload is then pushed through several rank counts to show
(a) bit-identical global reductions and (b) the per-rank memory
footprint that drives the paper's Fig. 9 OOM analysis, evaluated
against the Edison machine model (whose configurations keep their
ranks x threads).

Run: ``python examples/hybrid_cluster.py``
"""

from repro import HubbardModel, HybridConfig, Pattern, RectangularLattice, run_fsi_fleet
from repro.perf.machine import EDISON, fsi_rank_memory_bytes

model = HubbardModel(RectangularLattice(4, 4), L=16, t=1.0, U=2.0, beta=1.0)
N_MATRICES = 8
C = 4

print(f"fleet: {N_MATRICES} Hubbard matrices, (N, L, c) = (16, 16, {C})\n")
print(f"{'ranks':>6s} {'trace_sum':>12s} {'frobenius^2':>12s} "
      f"{'seconds':>8s} {'msgs':>5s}")
for ranks in (1, 2, 4, 8):
    report = run_fsi_fleet(
        model,
        HybridConfig(
            n_matrices=N_MATRICES,
            n_ranks=ranks,
            c=C,
            pattern=Pattern.COLUMNS,
            seed=7,
        ),
    )
    g = report.global_measurements
    print(
        f"{ranks:>6d} {g['trace_sum']:12.6f}"
        f" {g['frobenius_sq']:12.6f} {report.elapsed_seconds:8.3f}"
        f" {report.comm.total_messages:5d}"
    )

print("\nthe global reductions above are identical for every decomposition —")
print("the q offsets are keyed by global matrix index, as Alg. 3 requires.\n")

# The Fig. 9 story at paper scale: which Edison configurations fit?
print("Edison memory feasibility for (L, c) = (100, 10) block columns:")
print(f"{'N':>6s} {'mem/rank':>10s}  " + "  ".join(
    f"{r}x{t}" for r, t in ((200, 12), (400, 6), (800, 3), (1200, 2), (2400, 1))
))
for N in (400, 576, 784, 1024):
    mem = fsi_rank_memory_bytes(N, 100, 10, Pattern.COLUMNS)
    cells = []
    for ranks, _threads in ((200, 12), (400, 6), (800, 3), (1200, 2), (2400, 1)):
        ranks_per_socket = ranks // 100 // 2 or 1
        ok = EDISON.fits_on_socket(ranks_per_socket, mem)
        cells.append(" fits " if ok else " OOM  ")
    print(f"{N:>6d} {mem / 2**30:>8.2f}GB  " + "  ".join(cells))
print("\npure MPI (2400x1) only fits N = 400 — the paper's hybrid motivation.")
