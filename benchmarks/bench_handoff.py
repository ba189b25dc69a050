"""Result transfer across the worker-pool boundary, three ways.

A paper-scale COLUMNS result (``(N, L, c) = (100, 64, 8)``, 41 MB) is
what the ``tdm_columns`` serving workload moves from a worker process
to the service process on every request.  This script times one round
trip of that result — the worker hands it over, the service process
rebuilds it, and then drops it — with no solve in the way: every task
returns the same precomputed result, built before the workers fork.

* **pooled** — :meth:`repro.service.WorkerPool.run_batch` on a
  2-worker pool in steady state: the worker copies into a reused
  segment the pool leased it (:class:`repro.service.handoff.
  ResultSegments`), and dropping the result returns the segment;
* **fresh** — :func:`repro.service.handoff.export` into a new segment
  in the worker and :func:`~repro.service.handoff.receive` in the
  service process, a fresh name every round (the pool's path before it
  reused segments);
* **pickled** — the result returned through the executor's result pipe.

The three run interleaved, one round each in turn, on 2-worker pools.
The gate compares pooled against fresh from the same run: pooled ms /
fresh ms must stay under :data:`RATIO_CEILING`.  It writes
``BENCH_handoff.json`` (the envelope of ``benchmarks/envelope.py``).

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_handoff.py --check
"""

from __future__ import annotations

import argparse
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.bench.workloads import VALIDATION
from repro.core.patterns import BlockArray, Pattern, Selection
from repro.parallel.budget import process_budget
from repro.service import JobResult, WorkerPool, handoff

from envelope import write_record

#: Pooled ms / fresh ms must stay below this.  The first committed
#: point read 0.33 (13.8 against 41.8 ms) on a 2-core host; the ceiling
#: leaves room for a noisy shared host, not for losing the reuse.
RATIO_CEILING = 0.6

#: The precomputed result every task returns (set before any fork).
_RESULT: JobResult | None = None


def _columns_result() -> JobResult:
    w = VALIDATION
    selection = Selection(Pattern.COLUMNS, L=w.L, c=w.c, q=0)
    keys = selection.block_indices()
    data = np.random.default_rng(0).standard_normal((len(keys), w.N, w.N))
    return JobResult("handoff-bench", selection, BlockArray(keys, data))


def _precomputed(jobs, fleet_ranks=1, threads_per_rank=1, **kwargs):
    """Pool task: the precomputed result, as a batch of one."""
    return [_RESULT]


def _export_fresh(segment: str) -> handoff.Parcel:
    return handoff.export([_RESULT], segment)


def _pickled() -> list:
    return [_RESULT]


def measure_handoff(rounds: int = 15, warmup: int = 3) -> dict:
    """Median and quartiles of each way's round-trip ms over ``rounds``."""
    global _RESULT
    _RESULT = _columns_result()
    nbytes = _RESULT.blocks.data.nbytes
    pool = WorkerPool(workers=2, task_fn=_precomputed)
    plain = ProcessPoolExecutor(max_workers=2)
    prefix = handoff.pool_prefix()
    names = itertools.count()

    def pooled() -> None:
        [res] = pool.run_batch([])
        assert res.blocks.data.nbytes == nbytes

    def fresh() -> None:
        parcel = plain.submit(_export_fresh, f"{prefix}0-{next(names)}").result()
        [res] = handoff.receive(parcel)
        assert res.blocks.data.nbytes == nbytes

    def pickled() -> None:
        [res] = plain.submit(_pickled).result()
        assert res.blocks.data.nbytes == nbytes

    ways = {"pooled": pooled, "fresh": fresh, "pickled": pickled}
    samples: dict[str, list[float]] = {name: [] for name in ways}
    try:
        for r in range(warmup + rounds):
            for name, trip in ways.items():
                t0 = time.perf_counter()
                trip()
                if r >= warmup:
                    samples[name].append((time.perf_counter() - t0) * 1e3)
    finally:
        pool.shutdown()
        plain.shutdown()
        handoff.sweep(prefix, 1)
    points = []
    for name, ms in samples.items():
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        points.append({"way": name, "ms_median": float(med),
                       "ms_q1": float(q1), "ms_q3": float(q3),
                       "rounds": len(ms)})
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
        help=f"exit non-zero when pooled / fresh ms >= {RATIO_CEILING}",
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
    mb = stats["workload"]["result_mb"]
    for p in stats["points"]:
        print(f"{p['way']:>8}: {p['ms_median']:6.1f} ms per {mb:.0f} MB round"
              f" trip (quartiles {p['ms_q1']:.1f}-{p['ms_q3']:.1f})")
    print(f"  pooled / fresh = {ratio:.2f} (ceiling {RATIO_CEILING})")
    gates = {
        "pooled_vs_fresh": {
            "metric": "pooled ms / fresh-segment ms per round trip (same run)",
            "ratio": ratio,
            "ceiling": RATIO_CEILING,
            "passed": ratio < RATIO_CEILING,
        },
    }
    passed = write_record(args.json_out, "result-handoff", stats["workload"],
                          stats["points"], gates)
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
