"""Experiment harness: timed, traced runs of the core pipelines.

Wraps the library entry points with a :class:`~repro.telemetry.FlopTracer`
and wall-clock timing so every experiment script reports measured flops,
measured seconds and the achieved (real-hardware) rate next to the
modeled Edison numbers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from ..core.baselines import lu_selected_inversion
from ..core.fsi import fsi
from ..core.greens_explicit import explicit_selected_columns
from ..core.patterns import Pattern, Selection
from ..core.pcyclic import BlockPCyclic
from ..telemetry import FlopTracer

__all__ = ["TimedRun", "run_fsi", "run_lu_baseline", "run_explicit_baseline"]


@dataclass(frozen=True)
class TimedRun:
    """Measured facts about one algorithm execution.

    With ``repeats > 1`` the run is re-executed and ``seconds`` is the
    *minimum* over the repeats (the standard noise-resistant statistic
    for short benchmarks: the fastest run is the one least disturbed by
    the OS); ``seconds_median`` is the median, and ``all_seconds``
    retains every per-repeat timing.  Flops and stage attribution come
    from the final repeat — the algorithms are deterministic, so the
    counts are identical across repeats.
    """

    label: str
    seconds: float
    stage_flops: dict[str, float]
    stage_seconds: dict[str, float]
    result: object
    all_seconds: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.all_seconds:
            object.__setattr__(self, "all_seconds", (self.seconds,))

    @property
    def repeats(self) -> int:
        return len(self.all_seconds)

    @property
    def seconds_median(self) -> float:
        """Median wall seconds over the repeats."""
        return statistics.median(self.all_seconds)

    @property
    def flops(self) -> float:
        """Total flops: the sum of ``stage_flops``."""
        return sum(self.stage_flops.values())

    @property
    def gflops(self) -> float:
        """Achieved rate on *this* machine (not Edison), from the best run."""
        return self.flops / self.seconds / 1e9 if self.seconds > 0 else 0.0


def _timed(label: str, fn, repeats: int = 1, warmup: int = 0) -> TimedRun:
    """Time ``fn`` ``repeats`` times after ``warmup`` discarded runs.

    Single-shot timings are noisy (BLAS thread spin-up, page faults,
    turbo states); service benchmarks compare against these baselines
    and need them stable, hence min/median over repeats.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    timings: list[float] = []
    result = None
    tr = FlopTracer()
    for _rep in range(repeats):
        # Only the last repeat is traced: tracing accumulates, and we
        # want the flop count of exactly one execution.
        tr = FlopTracer()
        with tr:
            t0 = time.perf_counter()
            result = fn()
            timings.append(time.perf_counter() - t0)
    summary = tr.summary()
    return TimedRun(
        label=label,
        seconds=min(timings),
        stage_flops={k: v["flops"] for k, v in summary.items()},
        stage_seconds={k: v["seconds"] for k, v in summary.items()},
        result=result,
        all_seconds=tuple(timings),
    )


def run_fsi(
    pc: BlockPCyclic,
    c: int,
    pattern: Pattern = Pattern.COLUMNS,
    q: int = 1,
    repeats: int = 1,
    warmup: int = 0,
) -> TimedRun:
    """One traced FSI execution (min/median over ``repeats``)."""
    return _timed(
        "fsi",
        lambda: fsi(pc, c, pattern=pattern, q=q),
        repeats=repeats,
        warmup=warmup,
    )


def run_lu_baseline(
    pc: BlockPCyclic,
    selection: Selection,
    repeats: int = 1,
    warmup: int = 0,
) -> TimedRun:
    """The dense DGETRF/DGETRI baseline on the same selection."""
    return _timed(
        "lu",
        lambda: lu_selected_inversion(pc, selection),
        repeats=repeats,
        warmup=warmup,
    )


def run_explicit_baseline(
    pc: BlockPCyclic,
    columns: list[int],
    repeats: int = 1,
    warmup: int = 0,
) -> TimedRun:
    """The explicit-form (Eq. (3)) baseline for block columns."""
    return _timed(
        "explicit",
        lambda: explicit_selected_columns(pc, columns),
        repeats=repeats,
        warmup=warmup,
    )
