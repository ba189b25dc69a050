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

All five run interleaved, one round each in turn.  Two gates compare
points of the same run: pooled ms / fresh ms must stay under
:data:`RATIO_CEILING`, and served ms / inline ms under
:data:`SERVED_CEILING`.  It writes ``BENCH_handoff.json`` (the
envelope of ``benchmarks/envelope.py``).

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

#: The precomputed result every task returns (set before any fork).
_RESULT: JobResult | None = None


def _columns_result() -> JobResult:
    w = VALIDATION
    selection = Selection(Pattern.COLUMNS, L=w.L, c=w.c, q=0)
    keys = selection.block_indices()
    data = np.random.default_rng(0).standard_normal((len(keys), w.N, w.N))
    return JobResult("handoff-bench", selection, BlockArray(keys, data))


def _columns_job() -> GreensJob:
    w = VALIDATION
    spec = ModelSpec(nx=w.nx, ny=w.ny, L=w.L, t=w.t, U=w.U, beta=w.beta)
    field = HSField.random(w.L, spec.N, np.random.default_rng(1))
    return GreensJob.from_field(spec, field, c=w.c, pattern=Pattern.COLUMNS, q=3)


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
    job = _columns_job()
    assert job.result_nbytes == nbytes
    pool = WorkerPool(workers=2, task_fn=_precomputed)
    plain = ProcessPoolExecutor(max_workers=2)
    served_ways: list[str] = []
    solver = WorkerPool(
        workers=2, on_handoff=lambda way, _s: served_ways.append(way)
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

    def served() -> None:
        res = solver.run(job)
        assert res.blocks.data.nbytes == nbytes

    def inline() -> None:
        res = execute_job(job, num_threads=1)
        assert res.blocks.data.nbytes == nbytes

    ways = {"pooled": pooled, "fresh": fresh, "pickled": pickled,
            "served": served, "inline": inline}
    samples: dict[str, list[float]] = {name: [] for name in ways}
    try:
        for r in range(warmup + rounds):
            if r == warmup:
                served_ways.clear()
            for name, trip in ways.items():
                t0 = time.perf_counter()
                trip()
                if r >= warmup:
                    samples[name].append((time.perf_counter() - t0) * 1e3)
    finally:
        pool.shutdown()
        solver.shutdown()
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
        if name == "served":
            # How the measured rounds came back: all in place when the
            # pool is in steady state.
            points[-1]["handoffs"] = {
                way: served_ways.count(way) for way in sorted(set(served_ways))
            }
    return {
        "workload": {"N": VALIDATION.N, "L": VALIDATION.L, "c": VALIDATION.c,
                     "pattern": "columns", "result_mb": nbytes / 1e6,
                     "workers": 2},
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    process_budget()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit non-zero when pooled / fresh ms >= {RATIO_CEILING}"
             f" or served / inline ms >= {SERVED_CEILING}",
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
    mb = stats["workload"]["result_mb"]
    for p in stats["points"]:
        print(f"{p['way']:>8}: {p['ms_median']:6.1f} ms per {mb:.0f} MB round"
              f" trip (quartiles {p['ms_q1']:.1f}-{p['ms_q3']:.1f})")
    print(f"  pooled / fresh = {ratio:.2f} (ceiling {RATIO_CEILING})")
    print(f"  served / inline = {served:.2f} (ceiling {SERVED_CEILING})")
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
    }
    passed = write_record(args.json_out, "result-handoff", stats["workload"],
                          stats["points"], gates)
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
