"""Hybrid driver — parallel application of FSI to many Green's functions.

This is Alg. 3 of the paper, running on :mod:`repro.parallel.simmpi`
instead of real MPI:

* the root rank generates the HS parameter arrays ``h`` for all ``m``
  matrices (never the matrices themselves — "generating all the input
  matrices in one MPI process is neither efficient nor feasible") and
  scatters them as flat int8 buffers;
* each rank rebuilds its Hubbard matrices locally, runs FSI per matrix
  with its OpenMP-style thread team (CLS clusters and WRP seeds are the
  threaded loops), accumulates *local* measurement quantities, and
* a final ``Reduce`` aggregates the local quantities into global ones
  on the root.

Green's functions never cross rank boundaries — only the tiny ``h``
buffers and the reduced measurement vectors do, exactly as in the
paper; the per-rank *memory* high-water mark (matrix + BSOFI seeds +
selected blocks) is reported so the OOM analysis of Fig. 9 can be
checked against the analytic model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.patterns import Pattern, SelectedInversion, Selection
from ..hubbard.hs_field import HSField
from ..hubbard.matrix import HubbardModel
from ..perf.tracer import FlopTracer
from ..telemetry import runtime as _telemetry
from ..transport import BaseCommunicator as Communicator
from ..transport import CommStats, create_world

__all__ = [
    "HybridConfig",
    "HybridReport",
    "FleetMatrixError",
    "FleetJobOutput",
    "run_fsi_fleet",
    "run_selected_fleet",
    "rank_work",
]


class FleetMatrixError(RuntimeError):
    """A per-matrix failure inside a fleet, annotated with the *global*
    matrix index so operators know which unit of work to replay."""

    def __init__(self, matrix_index: int, original: BaseException):
        super().__init__(f"fleet matrix {matrix_index} failed: {original!r}")
        self.matrix_index = matrix_index
        self.original = original

    def __reduce__(self):
        # Survive the pickle round-trip across process-backed transports
        # (default exception pickling replays the formatted message into
        # ``__init__`` and fails on the two-argument signature).
        return (type(self), (self.matrix_index, self.original))


@dataclass(frozen=True)
class HybridConfig:
    """Parameters of one hybrid run (Alg. 3).

    ``n_matrices`` need not divide evenly: the remainder is spread one
    extra matrix per low rank (block distribution), exactly what
    ``MPI_Scatterv`` would carry.
    """

    n_matrices: int
    n_ranks: int
    threads_per_rank: int
    c: int
    pattern: Pattern = Pattern.COLUMNS
    sigma: int = +1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_matrices < 1 or self.n_ranks < 1:
            raise ValueError("n_matrices and n_ranks must be >= 1")
        if self.n_matrices < self.n_ranks:
            raise ValueError(
                f"n_matrices={self.n_matrices} < n_ranks={self.n_ranks}:"
                " some ranks would be idle; shrink the world instead"
            )
        if self.threads_per_rank < 1:
            raise ValueError("threads_per_rank must be >= 1")

    def batch_bounds(self, rank: int) -> tuple[int, int]:
        """Global matrix index range ``[lo, hi)`` owned by ``rank``."""
        base, rem = divmod(self.n_matrices, self.n_ranks)
        lo = rank * base + min(rank, rem)
        hi = lo + base + (1 if rank < rem else 0)
        return lo, hi


@dataclass
class HybridReport:
    """Global measurements plus runtime/communication accounting."""

    global_measurements: dict[str, np.ndarray | float]
    matrices_done: int
    elapsed_seconds: float
    comm: CommStats
    per_rank_peak_bytes: int

    def measurement(self, name: str) -> np.ndarray | float:
        return self.global_measurements[name]


def _measure_selected(selected, N: int) -> dict[str, float]:
    """The local measurement quantities of Alg. 3 (demonstration set).

    Scalar functionals of the selected blocks that reduce with '+':
    the trace sum of selected diagonal blocks (an equal-time density
    proxy) and the total Frobenius mass of the selection.
    """
    trace_sum = 0.0
    frob = 0.0
    for (k, l), blk in selected.items():
        if k == l:
            trace_sum += float(np.trace(blk))
        frob += float(np.sum(blk * blk))
    return {"trace_sum": trace_sum, "frobenius_sq": frob, "count": 1.0}


def rank_work(
    comm: Communicator,
    model: HubbardModel,
    cfg: HybridConfig,
) -> dict[str, float]:
    """The body each rank executes (Alg. 3, "On each MPI_process").

    Returns the rank's local measurement dict (also reduced to root via
    the communicator — the return value is used by the tests).
    """
    # Imported here rather than at module level: repro.core's stage
    # modules import repro.parallel.openmp, so a module-level import of
    # the FSI driver from inside repro.parallel would be circular.
    from ..core.fsi import fsi

    L, N = model.L, model.N
    lo, hi = cfg.batch_bounds(comm.rank)
    # Root generates all HS buffers, scatters one (possibly uneven)
    # batch per rank — the Scatterv pattern, via the object scatter.
    if comm.rank == 0:
        rng = np.random.default_rng(cfg.seed)
        all_h = rng.choice(
            np.array([-1, 1], dtype=np.int8),
            size=(cfg.n_matrices, L * N),
        )
        batches = [
            all_h[cfg.batch_bounds(r)[0] : cfg.batch_bounds(r)[1]]
            for r in range(cfg.n_ranks)
        ]
    else:
        batches = None
    my_h = comm.scatter(batches, root=0)

    local: dict[str, float] = {}
    peak = 0
    for it in range(hi - lo):
        # Key the q draw by the *global* matrix index so results are
        # identical for any rank decomposition of the same workload.
        global_index = lo + it
        try:
            buf = my_h[it]
            hs = HSField.from_buffer(buf, L, N)
            pc = model.build_matrix(hs, cfg.sigma)
            res = fsi(
                pc,
                cfg.c,
                pattern=cfg.pattern,
                rng=np.random.default_rng((cfg.seed, global_index)),
                num_threads=cfg.threads_per_rank,
            )
        except Exception as exc:
            raise FleetMatrixError(global_index, exc) from exc
        meas = _measure_selected(res.selected, N)
        for key, value in meas.items():
            local[key] = local.get(key, 0.0) + value
        peak = max(
            peak,
            pc.memory_bytes()
            + res.seed_set.nbytes
            + res.selected.memory_bytes(),
        )
    local["peak_bytes"] = float(peak)
    total = comm.reduce(
        {k: v for k, v in local.items() if k != "peak_bytes"}, root=0
    )
    peak_all = comm.reduce(local["peak_bytes"], op=max, root=0)
    if comm.rank == 0:
        assert total is not None
        total["peak_bytes"] = peak_all
        return total
    return local


@dataclass
class FleetJobOutput:
    """One matrix's selected blocks + accounting from a selected fleet."""

    selection: Selection
    blocks: SelectedInversion
    flops: float = 0.0
    stage_flops: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0


def _bounds(n: int, size: int, rank: int) -> tuple[int, int]:
    """Block distribution ``[lo, hi)`` of ``n`` items over ``size`` ranks."""
    base, rem = divmod(n, size)
    lo = rank * base + min(rank, rem)
    return lo, lo + base + (1 if rank < rem else 0)


def _selected_rank_work(
    comm: Communicator,
    model: HubbardModel,
    jobs: Sequence[tuple[np.ndarray, int, Pattern, int]],
    threads_per_rank: int,
    sigma: int,
) -> list[FleetJobOutput] | None:
    """Rank body of :func:`run_selected_fleet` (scatter/compute/gather)."""
    from ..core.fsi import fsi  # deferred: see rank_work

    L, N = model.L, model.N
    lo, _ = _bounds(len(jobs), comm.size, comm.rank)
    if comm.rank == 0:
        batches = [
            list(jobs[slice(*_bounds(len(jobs), comm.size, r))])
            for r in range(comm.size)
        ]
    else:
        batches = None
    mine = comm.scatter(batches, root=0)

    outs: list[tuple[int, FleetJobOutput]] = []
    for offset, (buf, c, pattern, q) in enumerate(mine):
        global_index = lo + offset
        try:
            hs = HSField.from_buffer(np.asarray(buf).reshape(-1), L, N)
            pc = model.build_matrix(hs, sigma)
            with _telemetry.span("fleet.job", index=global_index):
                with FlopTracer() as tracer:
                    t0 = time.perf_counter()
                    res = fsi(pc, c, pattern=pattern, q=q,
                              num_threads=threads_per_rank)
                    elapsed = time.perf_counter() - t0
        except Exception as exc:
            raise FleetMatrixError(global_index, exc) from exc
        outs.append(
            (
                global_index,
                FleetJobOutput(
                    selection=res.selection,
                    blocks=res.selected,
                    flops=tracer.total_flops,
                    stage_flops={n_: tracer.flops(n_) for n_ in tracer.stages},
                    seconds=elapsed,
                ),
            )
        )
    gathered = comm.gather(outs, root=0)
    if comm.rank != 0:
        return None
    assert gathered is not None
    flat = sorted(
        (item for rank_items in gathered for item in rank_items),
        key=lambda pair: pair[0],
    )
    return [out for _, out in flat]


def run_selected_fleet(
    model: HubbardModel,
    jobs: Sequence[tuple[np.ndarray, int, Pattern, int]],
    n_ranks: int,
    threads_per_rank: int = 1,
    sigma: int = +1,
    transport: str | None = None,
) -> list[FleetJobOutput]:
    """Compute selected inversions for *given* ``(h, c, pattern, q)`` jobs.

    Unlike :func:`run_fsi_fleet` (Alg. 3 proper, which reduces scalar
    measurements and never moves Green's functions), this fleet gathers
    each job's selected blocks back to the root — it is the execution
    engine behind the service layer's micro-batching, where callers
    need the blocks themselves.  Jobs are distributed blockwise over
    ``n_ranks`` ranks of the named transport backend (default: the
    ``REPRO_TRANSPORT`` environment variable, else ``threads``);
    results come back in submission order.
    """
    if not jobs:
        return []
    n_ranks = max(1, min(n_ranks, len(jobs)))
    world = create_world(n_ranks, backend=transport)
    with _telemetry.span(
        "fleet.selected", jobs=len(jobs), ranks=n_ranks,
        threads_per_rank=threads_per_rank, backend=world.name,
    ):
        results = world.run(
            _selected_rank_work, model, list(jobs), threads_per_rank, sigma
        )
    root = results[0]
    assert root is not None
    return root


def run_fsi_fleet(
    model: HubbardModel, cfg: HybridConfig, transport: str | None = None
) -> HybridReport:
    """Launch Alg. 3 on a transport world and aggregate the results."""
    world = create_world(cfg.n_ranks, backend=transport)
    t0 = time.perf_counter()
    with _telemetry.span(
        "fleet.run", matrices=cfg.n_matrices, ranks=cfg.n_ranks
    ):
        results = world.run(rank_work, model, cfg)
    elapsed = time.perf_counter() - t0
    root = results[0]
    peak = int(root.pop("peak_bytes"))
    return HybridReport(
        global_measurements=root,
        matrices_done=cfg.n_matrices,
        elapsed_seconds=elapsed,
        comm=world.stats,
        per_rank_peak_bytes=peak,
    )
