"""Result transfer across the worker-pool boundary: three ways of
moving a result, and a served solve against the same solve inline.

A paper-scale COLUMNS result (``(N, L, c) = (100, 64, 8)``, 41 MB) is
what the ``tdm_columns`` serving workload moves from a worker process
to the service process on every request.  Three points time one round
trip of that result — the worker hands it over, the service process
rebuilds it, and then drops it — with no solve in the way: every task
returns the same precomputed result, built before the workers fork.

* **pooled** — :meth:`repro.service.WorkerPool.run` on a 2-worker pool
  in steady state.  The task returns a buffer it did not allocate
  through :meth:`~repro.core.patterns.SelectedInversion.empty`, so
  this is the *copy fallback*: the worker copies into the segment the
  pool leased it (:class:`repro.service.handoff.ResultSegments`), and
  dropping the result returns the segment;
* **fresh** — a new segment per round, as a worker had to make one
  before the pool lent segments: the worker creates it, copies the
  result in and returns its name; the service process maps it,
  unlinks it and rebuilds the result over the mapping;
* **pickled** — the result returned through the executor's result pipe.

Two more points run a real solve of one paper-scale COLUMNS
:class:`~repro.service.GreensJob`:

* **served** — :func:`repro.service.execute_job` through a steady-state
  2-worker ``WorkerPool.run``: the worker solves into the leased
  segment (:class:`repro.service.handoff.Arena`) and copies nothing;
* **inline** — the same ``execute_job`` in the calling process.

Two more do the same for a paper-scale FULL_DIAGONAL job, whose result
is 5.12 MB (``delta_star``'s bases): **served_full_diagonal**, through
the same pool, and **inline_full_diagonal**.  And two for the guarded
paper-scale DIAGONAL job of ``chain_deployed`` (0.64 MB):
**served_diagonal**, through a 1-worker pool with ``GuardConfig()``,
and **inline_diagonal**, with the same guards.

All nine run interleaved, one round each in turn.  Every solve point
also reports the median of its jobs' ``JobResult.minor_faults``: a
pool worker keeps its heap across jobs (:mod:`repro.parallel.heap`),
so a served job faults in only what it has not touched before.  Four
gates compare points of the same run: pooled ms / fresh ms must stay
under :data:`RATIO_CEILING`, served ms / inline ms under
:data:`SERVED_CEILING`, and the FULL_DIAGONAL served ms / inline ms
under :data:`SERVED_FULL_DIAGONAL_CEILING`; the served DIAGONAL job's
minor faults, a count and not a time, must stay under
:data:`SERVED_DIAGONAL_FAULTS_CEILING`.  It writes
``BENCH_handoff.json`` (the envelope of ``benchmarks/envelope.py``).

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_handoff.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import mmap
import os
import secrets
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.bench.workloads import VALIDATION
from repro.core.patterns import BlockArray, Pattern, Selection
from repro.hubbard.hs_field import HSField
from repro.parallel.budget import process_budget
from repro.resilience.guards import GuardConfig
from repro.service import (
    GreensJob, JobResult, ModelSpec, WorkerPool, execute_job, handoff,
)

from envelope import write_record

#: Pooled ms / fresh ms must stay below this.  The first committed
#: point read 0.33 (13.8 against 41.8 ms) on a 2-core host; the ceiling
#: leaves room for a noisy shared host, not for losing the reuse.
RATIO_CEILING = 0.6

#: Served ms / inline ms must stay below this.  Solved in place, the
#: served solve skips the private buffer's page faults that the inline
#: one pays: four runs on a 2-core host read 0.85-0.95 (the first
#: committed point 0.95, 86.9 against 91.5 ms).  With the copy fallback
#: instead of the arena, the same setting read 1.29.
SERVED_CEILING = 1.1

#: FULL_DIAGONAL served ms / inline ms must stay below this.  The first
#: committed point read 1.04 (40.5 against 38.7 ms) on a 2-core host,
#: and four more runs 0.97-1.18.  With the 5.12 MB result pickled
#: instead of solved into a lease, four runs read 1.37-1.79.
SERVED_FULL_DIAGONAL_CEILING = 1.3

#: Median minor faults per served DIAGONAL job must stay below this.
#: A count, not a time: a worker keeps its heap across jobs, so a warm
#: guarded DIAGONAL job faults in almost nothing.  The first committed
#: point read 11 on a 2-core host; with the worker's ``keep_heap()``
#: call removed, the same benchmark read 2,379.
SERVED_DIAGONAL_FAULTS_CEILING = 200

#: The precomputed result every task returns (set before any fork).
_RESULT: JobResult | None = None


def _columns_result() -> JobResult:
    w = VALIDATION
    selection = Selection(Pattern.COLUMNS, L=w.L, c=w.c, q=0)
    keys = selection.block_indices()
    data = np.random.default_rng(0).standard_normal((len(keys), w.N, w.N))
    return JobResult("handoff-bench", selection, BlockArray(keys, data))


def _job(pattern: Pattern) -> GreensJob:
    w = VALIDATION
    spec = ModelSpec(nx=w.nx, ny=w.ny, L=w.L, t=w.t, U=w.U, beta=w.beta)
    field = HSField.random(w.L, spec.N, np.random.default_rng(1))
    return GreensJob.from_field(spec, field, c=w.c, pattern=pattern, q=3)


def _precomputed(job, **kwargs) -> JobResult:
    """Pool task: the precomputed result."""
    return _RESULT


def _pickled() -> JobResult:
    return _RESULT


def _export_fresh(name: str) -> str:
    """Worker side of ``fresh``: create segment ``name``, copy the
    result's buffer into it, and hand it over."""
    data = _RESULT.blocks.data
    fd = os.open(f"{handoff.SHM_DIR}/{name}", os.O_RDWR | os.O_CREAT | os.O_EXCL)
    try:
        os.ftruncate(fd, data.nbytes)
        with mmap.mmap(fd, data.nbytes) as mapping:
            mapping[:] = memoryview(data).cast("B")
    finally:
        os.close(fd)
    return name


def _receive_fresh(name: str) -> np.ndarray:
    """Service side of ``fresh``: map segment ``name``, unlink it, and
    rebuild the result's buffer over the mapping."""
    path = f"{handoff.SHM_DIR}/{name}"
    fd = os.open(path, os.O_RDWR)
    try:
        mapping = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    os.unlink(path)
    return np.ndarray(_RESULT.blocks.data.shape, np.float64, mapping)


def measure_handoff(rounds: int = 15, warmup: int = 3) -> dict:
    """Median and quartiles of each way's round-trip ms over ``rounds``."""
    global _RESULT
    _RESULT = _columns_result()
    nbytes = _RESULT.blocks.data.nbytes
    job = _job(Pattern.COLUMNS)
    assert job.result_nbytes == nbytes
    full_diagonal = _job(Pattern.FULL_DIAGONAL)
    diagonal = _job(Pattern.DIAGONAL)
    guards = GuardConfig()
    pool = WorkerPool(workers=2, task_fn=_precomputed)
    plain = ProcessPoolExecutor(max_workers=2)
    handoffs: list[str] = []
    solver = WorkerPool(
        workers=2, on_handoff=lambda way, _s: handoffs.append(way)
    )
    guarded = WorkerPool(
        workers=1, guards=guards,
        on_handoff=lambda way, _s: handoffs.append(way),
    )
    prefix = f"repro-bench-fresh-{secrets.token_hex(4)}-"
    names = itertools.count()

    def pooled() -> None:
        res = pool.run(job)
        assert res.blocks.data.nbytes == nbytes

    def fresh() -> None:
        name = plain.submit(_export_fresh, f"{prefix}{next(names)}").result()
        assert _receive_fresh(name).nbytes == nbytes

    def pickled() -> None:
        res = plain.submit(_pickled).result()
        assert res.blocks.data.nbytes == nbytes

    def served_as(solved: GreensJob, pool: WorkerPool = solver):
        def served() -> int:
            res = pool.run(solved)
            assert res.blocks.data.nbytes == solved.result_nbytes
            return res.minor_faults
        return served

    def inline_as(solved: GreensJob, guards: GuardConfig | None = None):
        def inline() -> int:
            res = execute_job(solved, num_threads=1, guards=guards)
            assert res.blocks.data.nbytes == solved.result_nbytes
            return res.minor_faults
        return inline

    ways = {"pooled": pooled, "fresh": fresh, "pickled": pickled,
            "served": served_as(job), "inline": inline_as(job),
            "served_full_diagonal": served_as(full_diagonal),
            "inline_full_diagonal": inline_as(full_diagonal),
            "served_diagonal": served_as(diagonal, guarded),
            "inline_diagonal": inline_as(diagonal, guards)}
    samples: dict[str, list[float]] = {name: [] for name in ways}
    faults: dict[str, list[int]] = {
        name: [] for name in ways if name.startswith(("served", "inline"))
    }
    served_ways: dict[str, list[str]] = {
        name: [] for name in ways if name.startswith("served")
    }
    try:
        for r in range(warmup + rounds):
            for name, trip in ways.items():
                t0 = time.perf_counter()
                minor_faults = trip()
                if r >= warmup:
                    samples[name].append((time.perf_counter() - t0) * 1e3)
                    if name in faults:
                        faults[name].append(minor_faults)
                    if name in served_ways:
                        served_ways[name].append(handoffs[-1])
    finally:
        pool.shutdown()
        solver.shutdown()
        guarded.shutdown()
        plain.shutdown()
        for name in os.listdir(handoff.SHM_DIR):  # a round cut short
            if name.startswith(prefix):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(f"{handoff.SHM_DIR}/{name}")
    points = []
    for name, ms in samples.items():
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        points.append({"way": name, "ms_median": float(med),
                       "ms_q1": float(q1), "ms_q3": float(q3),
                       "rounds": len(ms)})
        if name in faults:
            points[-1]["minor_faults_median"] = float(np.median(faults[name]))
        if name in served_ways:
            # How the measured rounds came back: all in place when the
            # pool is in steady state.
            got = served_ways[name]
            points[-1]["handoffs"] = {
                way: got.count(way) for way in sorted(set(got))
            }
    return {
        "workload": {"N": VALIDATION.N, "L": VALIDATION.L, "c": VALIDATION.c,
                     "pattern": "columns", "result_mb": nbytes / 1e6,
                     "full_diagonal_result_mb":
                         full_diagonal.result_nbytes / 1e6,
                     "diagonal_result_mb": diagonal.result_nbytes / 1e6,
                     "workers": 2, "diagonal_workers": 1,
                     "diagonal_guards": "GuardConfig()"},
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    process_budget()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit non-zero when pooled / fresh ms >= {RATIO_CEILING},"
             f" served / inline ms >= {SERVED_CEILING} (COLUMNS) or"
             f" >= {SERVED_FULL_DIAGONAL_CEILING} (FULL_DIAGONAL), or"
             f" served DIAGONAL minor faults per job >="
             f" {SERVED_DIAGONAL_FAULTS_CEILING}",
    )
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_handoff.json"),
        help="where to write the measurement record",
    )
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)

    stats = measure_handoff(rounds=args.rounds)
    ms = {p["way"]: p["ms_median"] for p in stats["points"]}
    ratio = ms["pooled"] / ms["fresh"]
    served = ms["served"] / ms["inline"]
    served_fd = ms["served_full_diagonal"] / ms["inline_full_diagonal"]
    diagonal_faults = next(p["minor_faults_median"] for p in stats["points"]
                           if p["way"] == "served_diagonal")
    workload = stats["workload"]
    for p in stats["points"]:
        pattern = p["way"].partition("_")[2]
        mb = workload[f"{pattern}_result_mb" if pattern else "result_mb"]
        faults = (f", {p['minor_faults_median']:.0f} minor faults"
                  if "minor_faults_median" in p else "")
        print(f"{p['way']:>20}: {p['ms_median']:6.1f} ms per {mb:.2f} MB"
              f" round trip (quartiles {p['ms_q1']:.1f}-{p['ms_q3']:.1f})"
              f"{faults}")
    print(f"  pooled / fresh = {ratio:.2f} (ceiling {RATIO_CEILING})")
    print(f"  served / inline = {served:.2f} (ceiling {SERVED_CEILING})")
    print(f"  FULL_DIAGONAL served / inline = {served_fd:.2f}"
          f" (ceiling {SERVED_FULL_DIAGONAL_CEILING})")
    print(f"  served DIAGONAL minor faults per job = {diagonal_faults:.0f}"
          f" (ceiling {SERVED_DIAGONAL_FAULTS_CEILING})")
    gates = {
        "pooled_vs_fresh": {
            "metric": "pooled ms / fresh-segment ms per round trip (same run)",
            "ratio": ratio,
            "ceiling": RATIO_CEILING,
            "passed": ratio < RATIO_CEILING,
        },
        "served_vs_inline": {
            "metric": "served ms / inline ms per COLUMNS execute_job,"
                      " solve included (same run)",
            "ratio": served,
            "ceiling": SERVED_CEILING,
            "passed": served < SERVED_CEILING,
        },
        "served_full_diagonal_vs_inline": {
            "metric": "served ms / inline ms per FULL_DIAGONAL execute_job"
                      " (5.12 MB result), solve included (same run)",
            "ratio": served_fd,
            "ceiling": SERVED_FULL_DIAGONAL_CEILING,
            "passed": served_fd < SERVED_FULL_DIAGONAL_CEILING,
        },
        "served_diagonal_faults": {
            "metric": "median minor faults per served guarded DIAGONAL"
                      " execute_job (0.64 MB result, ru_minflt in the worker)",
            "faults": diagonal_faults,
            "ceiling": SERVED_DIAGONAL_FAULTS_CEILING,
            "passed": diagonal_faults < SERVED_DIAGONAL_FAULTS_CEILING,
        },
    }
    passed = write_record(args.json_out, "result-handoff", stats["workload"],
                          stats["points"], gates)
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
