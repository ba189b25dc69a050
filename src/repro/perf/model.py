"""Analytic performance model — regenerates the paper's figures.

The reproduction runs the *algorithms* for real (exact numerics, real
flop counts from :mod:`repro.telemetry.flops`), but the paper's evaluation
numbers are properties of Edison.  This module converts *work*
(flops, bytes) into *Edison time* using a small set of mechanisms:

1. **dgemm efficiency** grows with block size and saturates
   (surface-to-volume): ``eff(N) = eff_max * N / (N + n_half)``.
   CLS and WRP run at dgemm rate; BSOFI's panel QR + triangular work
   runs at a documented fraction of it; dense LU (the MKL baseline) in
   between.
2. **Thread scaling.**  *OpenMP mode* (the paper's FSI: coarse
   independent tasks — clusters, seeds — one per thread) scales almost
   ideally, with a small per-thread fork/join overhead.  *MKL mode*
   (the same algorithm but relying on the library's internal threading
   of each BLAS call inside sequential outer loops) follows Amdahl with
   a serial fraction calibrated to Fig. 8 bottom (~2x gap at 12
   threads).
3. **Bandwidth-bound phases.**  Rank-1 Metropolis updates (DGER-like)
   and the element-wise measurement loops are memory-traffic-bound, not
   flop-bound; they scale with aggregate streaming bandwidth, which
   saturates at the socket level.
4. **Memory feasibility** (Fig. 9): a hybrid configuration is valid
   only if its ranks' FSI footprints fit in socket memory
   (:func:`repro.perf.machine.fsi_rank_memory_bytes`).
5. **MPI costs** (Alg. 3): one scatter of the HS buffers plus one
   reduce of the measurement vectors — latency/bandwidth model; tiny
   compared to compute, as the paper's design intends.

Calibration constants live in :class:`ModelParams`, each with the
paper observation it is anchored to.  The claim being reproduced is the
*shape* of every figure (who wins, by what factor, where OOM cuts in),
not the third significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bsofi import bsofi_flops
from ..core.cls import cls_flops
from ..core.patterns import Pattern
from ..core.wrap import wrap_flops
from .machine import EDISON, MachineSpec, fsi_rank_memory_bytes

__all__ = [
    "ModelParams",
    "StageProfile",
    "fsi_profile",
    "scaling_curve",
    "HybridPoint",
    "hybrid_performance",
    "measurement_time",
    "greens_time",
    "DQMCBreakdown",
    "dqmc_runtime",
    "gemm_efficiency",
    "thread_speedup",
    "strong_scaling_curve",
]


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants (each anchored to a paper observation)."""

    #: dgemm saturating efficiency; anchored to "the performance of FSI
    #: with OpenMP is close to the one of DGEMM, the peak rate in
    #: practice" (Sec. V-B) and the 180 Gflop/s FSI rate on 12 cores.
    gemm_eff_max: float = 0.95
    gemm_n_half: float = 32.0
    #: BSOFI mixes 2NxN panel QR, triangular inversion and small gemms;
    #: Fig. 8 top shows it well below the dgemm-rich stages.
    qr_eff_factor: float = 0.68
    #: Dense LU factor+invert (DGETRF/DGETRI) relative to dgemm.
    lu_eff_factor: float = 0.70
    #: OpenMP fork/join + imbalance per extra thread; Fig. 8 bottom
    #: "the OpenMP overhead is negligible when the number of threads is
    #: small" and ~90% parallel efficiency at 12 threads.
    omp_overhead_per_thread: float = 0.009
    #: Amdahl serial fraction of the MKL-internal-threading execution;
    #: calibrated to the ~100 Gflop/s MKL ceiling at 12 threads vs.
    #: ~180 for OpenMP FSI (Fig. 8, abstract).
    mkl_serial_fraction: float = 0.085
    #: Effective streaming bandwidth of the element-wise measurement
    #: loops per thread (strided multi-layer loops, "extremely
    #: inefficient level-1 BLAS", Sec. IV) ...
    elem_bw_per_thread_gbs: float = 2.0
    #: ... and the early saturation point of those strided accesses —
    #: they stop scaling well before the socket's streaming limit.
    elem_bw_max_gbs: float = 6.0
    #: Extra measurement traffic beyond SPXX itself (equal-time
    #: observables, distance-class scatters): multiplier on the SPXX
    #: block traffic.
    meas_traffic_factor: float = 3.0
    #: Relative slowdown of the sequential measurement code when run
    #: inside an MKL-threaded process (Fig. 10: "increases the CPU time
    #: for the physical measurements due to the execution of a
    #: sequential code in multi-threads").
    mkl_meas_penalty: float = 1.3
    #: Metropolis acceptance rate (fraction of proposals that pay the
    #: rank-1 update).
    acceptance: float = 0.5
    #: Green's-function rebuild cadence during sweeps (QUEST-style).
    nwrap: int = 25
    #: Multi-node derate of the single-socket rate model (cross-socket
    #: traffic, jitter); anchors the Fig. 9 peak at ~31 Tflops.
    hybrid_derate: float = 0.88


DEFAULT_PARAMS = ModelParams()


# ----------------------------------------------------------------------
# rate primitives
# ----------------------------------------------------------------------
def gemm_efficiency(N: int, p: ModelParams = DEFAULT_PARAMS) -> float:
    """Fraction of peak a dgemm with ``N x N`` blocks achieves."""
    return p.gemm_eff_max * N / (N + p.gemm_n_half)


def thread_speedup(threads: int, mode: str, p: ModelParams = DEFAULT_PARAMS) -> float:
    """Speedup over one thread for compute-bound stages."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if mode == "openmp":
        return threads / (1.0 + p.omp_overhead_per_thread * (threads - 1))
    if mode == "mkl":
        s = p.mkl_serial_fraction
        return 1.0 / (s + (1.0 - s) / threads)
    if mode == "serial":
        return 1.0
    raise ValueError(f"unknown mode {mode!r} (use openmp|mkl|serial)")


_STAGE_FACTOR = {"cls": 1.0, "wrp": 1.0, "bsofi": None, "lu": None}


def stage_gflops(
    stage: str,
    N: int,
    threads: int,
    mode: str,
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Modeled rate (Gflop/s) of one algorithm stage on ``threads`` cores."""
    base = machine.peak_core_gflops * gemm_efficiency(N, p)
    if stage in ("cls", "wrp"):
        factor = 1.0
    elif stage == "bsofi":
        factor = p.qr_eff_factor
    elif stage == "lu":
        factor = p.lu_eff_factor
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return base * factor * thread_speedup(threads, mode, p)


# ----------------------------------------------------------------------
# Fig. 8 top: per-stage profile of one selected inversion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageProfile:
    """Modeled per-stage work/time/rate for one selected inversion."""

    stage: str
    flops: float
    seconds: float

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


def fsi_profile(
    N: int,
    L: int,
    c: int,
    threads: int = 12,
    mode: str = "openmp",
    pattern: Pattern = Pattern.COLUMNS,
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> dict[str, StageProfile]:
    """Per-stage modeled profile of one FSI run plus the aggregate.

    Returns stages ``cls``, ``bsofi``, ``wrp`` and ``total``.  For the
    Fig. 8 comparison, evaluate with ``mode="openmp"`` (the paper's
    FSI) and ``mode="mkl"`` (library-threaded execution of the same
    algorithm).
    """
    b = L // c
    stages = {
        "cls": cls_flops(L, N, c),
        "bsofi": bsofi_flops(b, N),
        "wrp": wrap_flops(L, N, c, pattern),
    }
    out: dict[str, StageProfile] = {}
    total_flops = total_seconds = 0.0
    for stage, flops in stages.items():
        rate = stage_gflops(stage, N, threads, mode, machine, p) * 1e9
        seconds = flops / rate if flops > 0 else 0.0
        out[stage] = StageProfile(stage, flops, seconds)
        total_flops += flops
        total_seconds += seconds
    out["total"] = StageProfile("total", total_flops, total_seconds)
    return out


# ----------------------------------------------------------------------
# Fig. 8 bottom: thread-scaling curves
# ----------------------------------------------------------------------
def scaling_curve(
    N: int,
    L: int,
    c: int,
    threads_list: list[int] | None = None,
    pattern: Pattern = Pattern.COLUMNS,
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> dict[str, list[float]]:
    """Gflop/s vs. thread count: ideal / OpenMP / MKL (Fig. 8 bottom)."""
    if threads_list is None:
        threads_list = list(range(1, machine.cores_per_socket + 1))
    out: dict[str, list[float]] = {"threads": [float(t) for t in threads_list]}
    single = fsi_profile(N, L, c, 1, "openmp", pattern, machine, p)["total"]
    single_rate = single.gflops
    out["ideal"] = [single_rate * t for t in threads_list]
    for mode in ("openmp", "mkl"):
        out[mode] = [
            fsi_profile(N, L, c, t, mode, pattern, machine, p)["total"].gflops
            for t in threads_list
        ]
    return out


# ----------------------------------------------------------------------
# Fig. 9: hybrid MPI x OpenMP sweep with the OOM boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HybridPoint:
    """One (configuration, N) cell of the Fig. 9 sweep."""

    n_ranks: int
    threads_per_rank: int
    N: int
    feasible: bool
    mem_per_rank_gb: float
    tflops: float | None
    compute_seconds: float | None
    comm_seconds: float | None


def hybrid_performance(
    N: int,
    L: int,
    c: int,
    n_ranks: int,
    threads_per_rank: int,
    n_matrices: int,
    nodes: int = 100,
    pattern: Pattern = Pattern.COLUMNS,
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> HybridPoint:
    """Modeled aggregate rate of Alg. 3 on ``nodes`` Edison nodes.

    ``n_ranks * threads_per_rank`` should equal ``nodes *
    cores_per_node`` (the paper always saturates the allocation).
    Returns ``tflops=None`` if the configuration OOMs.
    """
    mem = fsi_rank_memory_bytes(N, L, c, pattern)
    ranks_per_node = n_ranks // nodes
    ranks_per_socket = max(
        1, int(np.ceil(ranks_per_node / machine.sockets_per_node))
    )
    feasible = machine.fits_on_socket(ranks_per_socket, mem)
    mem_gb = mem / 2**30
    if not feasible:
        return HybridPoint(
            n_ranks, threads_per_rank, N, False, mem_gb, None, None, None
        )
    prof = fsi_profile(N, L, c, threads_per_rank, "openmp", pattern, machine, p)
    per_matrix_s = prof["total"].seconds / p.hybrid_derate
    per_rank = n_matrices / n_ranks
    compute_s = per_rank * per_matrix_s
    # Alg. 3 communication: scatter the HS int8 buffers, reduce the
    # measurement vectors; a linear fan-out/fan-in of small messages.
    h_bytes = n_matrices * L * N  # int8
    reduce_bytes = n_ranks * 64 * 1024  # measurement vectors, generous
    comm_s = (
        2 * n_ranks * machine.mpi_latency_us * 1e-6
        + (h_bytes + reduce_bytes) / (machine.mpi_bw_gbs * 1e9)
    )
    total_s = compute_s + comm_s
    total_flops = n_matrices * prof["total"].flops
    return HybridPoint(
        n_ranks,
        threads_per_rank,
        N,
        True,
        mem_gb,
        total_flops / total_s / 1e12,
        compute_s,
        comm_s,
    )


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11: measurements and the full DQMC
# ----------------------------------------------------------------------
def _elem_bandwidth(threads: int, mode: str, machine: MachineSpec,
                    p: ModelParams) -> float:
    """Aggregate GB/s of the element-wise measurement loops."""
    if mode in ("serial",):
        return p.elem_bw_per_thread_gbs
    if mode == "mkl":
        # The measurement code is sequential; running it inside an
        # MKL-threaded process *slows it down* (Fig. 10).
        return p.elem_bw_per_thread_gbs / p.mkl_meas_penalty
    eff_threads = thread_speedup(threads, "openmp", p)
    return min(p.elem_bw_per_thread_gbs * eff_threads, p.elem_bw_max_gbs)


def measurement_time(
    N: int,
    L: int,
    c: int,
    threads: int = 12,
    mode: str = "openmp",
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Modeled seconds for the physical measurements of one Green's set.

    Traffic: SPXX touches ``2 b L`` block pairs (two spin terms), three
    ``N^2`` arrays per pair, times :attr:`ModelParams.meas_traffic_factor`
    for the remaining observables.
    """
    b = L // c
    pair_bytes = 3.0 * 8.0 * N * N
    traffic = 2.0 * b * L * pair_bytes * p.meas_traffic_factor
    return traffic / (_elem_bandwidth(threads, mode, machine, p) * 1e9)


def greens_time(
    N: int,
    L: int,
    c: int,
    threads: int = 12,
    mode: str = "openmp",
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> float:
    """Modeled seconds to produce the measurement Green's functions.

    Per Sec. V-C: all diagonal blocks, ``b`` block rows and ``b`` block
    columns, for both spins — one CLS+BSOFI per spin plus three wraps.
    """
    per_spin = (
        cls_flops(L, N, c)
        + bsofi_flops(L // c, N)
        + wrap_flops(L, N, c, Pattern.ROWS)
        + wrap_flops(L, N, c, Pattern.COLUMNS)
        + wrap_flops(L, N, c, Pattern.FULL_DIAGONAL)
    )
    seconds = 0.0
    for stage, flops in (
        ("cls", cls_flops(L, N, c)),
        ("bsofi", bsofi_flops(L // c, N)),
        (
            "wrp",
            per_spin - cls_flops(L, N, c) - bsofi_flops(L // c, N),
        ),
    ):
        rate = stage_gflops(stage, N, threads, mode, machine, p) * 1e9
        seconds += flops / rate
    return 2.0 * seconds  # both spins


@dataclass(frozen=True)
class DQMCBreakdown:
    """Modeled runtime decomposition of a full DQMC simulation."""

    sweep_seconds: float
    greens_seconds: float
    measurement_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.sweep_seconds + self.greens_seconds + self.measurement_seconds

    @property
    def greens_and_meas_fraction(self) -> float:
        """Sec. I claims ~80% of serial CPU time lives here."""
        gm = self.greens_seconds + self.measurement_seconds
        return gm / self.total_seconds


def dqmc_runtime(
    N: int,
    L: int,
    c: int,
    warmups: int,
    measurements: int,
    threads: int = 12,
    mode: str = "openmp",
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> DQMCBreakdown:
    """Modeled total runtime of Alg. 4 (the Fig. 11 experiment).

    Sweep cost decomposition (QUEST-style, delayed/blocked updates so
    the accepted rank-1 kicks execute as gemms):

    * updates: ``L*N*acceptance`` accepted flips x ``4 N^2`` flops (both
      spins) — too small for MKL's internal threading, so they stay
      serial in MKL mode;
    * wraps: two gemms per spin per slice advance (``8 L N^3`` flops);
    * rebuilds: every ``nwrap`` slices a fresh ``L``-gemm stabilised
      chain per spin (``(4 L^2 / nwrap) N^3`` flops).
    """
    sweeps = warmups + measurements
    n3 = float(N) ** 3
    update_flops = L * N * p.acceptance * 4.0 * N * N
    wrap_flops_ = 8.0 * L * n3
    rebuild_flops = (4.0 * L * L / p.nwrap) * n3
    gemm_rate = stage_gflops("cls", N, threads, mode, machine, p) * 1e9
    serial_rate = stage_gflops("cls", N, 1, "serial", machine, p) * 1e9
    t_updates = update_flops / (serial_rate if mode == "mkl" else gemm_rate)
    t_flops = (wrap_flops_ + rebuild_flops) / gemm_rate
    sweep_s = sweeps * (t_updates + t_flops)
    greens_s = measurements * greens_time(N, L, c, threads, mode, machine, p)
    meas_s = measurements * measurement_time(N, L, c, threads, mode, machine, p)
    return DQMCBreakdown(sweep_s, greens_s, meas_s)


def strong_scaling_curve(
    N: int,
    L: int,
    c: int,
    n_matrices: int,
    node_counts: list[int] | None = None,
    threads_per_rank: int = 1,
    pattern: Pattern = Pattern.COLUMNS,
    machine: MachineSpec = EDISON,
    p: ModelParams = DEFAULT_PARAMS,
) -> dict[str, list[float]]:
    """Modeled aggregate Tflop/s vs node count at fixed total work.

    Complements the fixed-100-node Fig. 9 sweep: with the compute
    embarrassingly parallel, deviations from linear scaling come from
    the serial scatter/reduce (linear fan-out in SimMPI/Alg. 3) and
    from load imbalance when ``n_matrices`` stops dividing the rank
    count evenly (modeled via the ceiling of the per-rank batch).
    """
    if node_counts is None:
        node_counts = [1, 2, 5, 10, 25, 50, 100, 200]
    out: dict[str, list[float]] = {"nodes": [], "tflops": [], "efficiency": []}
    prof = fsi_profile(N, L, c, threads_per_rank, "openmp", pattern, machine, p)
    per_matrix_s = prof["total"].seconds / p.hybrid_derate
    base_rate = None
    for nodes in node_counts:
        ranks = nodes * machine.cores_per_node // threads_per_rank
        per_rank = int(np.ceil(n_matrices / ranks))
        compute_s = per_rank * per_matrix_s
        h_bytes = n_matrices * L * N
        comm_s = (
            2 * ranks * machine.mpi_latency_us * 1e-6
            + (h_bytes + ranks * 64 * 1024) / (machine.mpi_bw_gbs * 1e9)
        )
        total_s = compute_s + comm_s
        tflops = n_matrices * prof["total"].flops / total_s / 1e12
        out["nodes"].append(float(nodes))
        out["tflops"].append(tflops)
        if base_rate is None:
            base_rate = tflops / nodes
        out["efficiency"].append(tflops / (nodes * base_rate))
    return out
