"""Telemetry overhead: the disabled path must be (nearly) free.

The contract of :mod:`repro.telemetry` is that instrumentation left in
hot paths costs a single attribute check when tracing is off, and that
the stage record a worker solve keeps costs little more.  This file
measures that contract twice over:

* pytest-benchmark timings of the disabled span path, the enabled span
  path, and the metric primitives, so regressions show up next to the
  other wall-clock numbers;
* a standalone ``--check`` mode (run by CI) that makes two estimates,
  each relative to one FSI solve, and **fails if either exceeds 5%**:

  - the disabled path: spans per solve times the cost of a span with
    telemetry off and no tracer;
  - the worker path: every service worker runs its solve under a
    :class:`~repro.telemetry.FlopTracer`, so kernel ``record_flops``
    calls and stage entries per solve times their cost with a tracer
    active (telemetry still off).

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_telemetry.py --check
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro import telemetry
from repro.bench.workloads import BENCH_SMALL, make_hubbard
from repro.core.fsi import fsi
from repro.parallel.budget import process_budget
from repro.telemetry import FlopTracer, record_flops
from repro.telemetry.metrics import Counter, Histogram

#: Maximum tolerated overhead of either path on one FSI solve.
OVERHEAD_BUDGET = 0.05


def _fresh_disabled():
    telemetry.reset()


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------

@pytest.mark.benchmark(group="telemetry")
def bench_disabled_span(benchmark):
    """The hot-path contract: span() with telemetry off."""
    _fresh_disabled()

    def run():
        for _ in range(1000):
            with telemetry.span("hot"):
                pass

    benchmark(run)


@pytest.mark.benchmark(group="telemetry")
def bench_enabled_span(benchmark):
    """Full recording path: id generation, clock reads, collection."""
    telemetry.reset()
    telemetry.configure(sample_rate=1.0)

    def run():
        for _ in range(1000):
            with telemetry.span("hot"):
                pass
        telemetry.collector().clear()

    benchmark(run)
    telemetry.reset()


@pytest.mark.benchmark(group="telemetry")
def bench_counter_inc(benchmark):
    c = Counter()
    benchmark(lambda: [c.inc() for _ in range(1000)])


@pytest.mark.benchmark(group="telemetry")
def bench_histogram_observe_snapshot(benchmark):
    h = Histogram()
    for i in range(4096):
        h.observe(float(i))

    def run():
        for i in range(100):
            h.observe(float(i))
        h.snapshot()

    benchmark(run)


@pytest.mark.benchmark(group="telemetry")
def bench_fsi_disabled_telemetry(benchmark, small_problem):
    """A full solve with instrumentation present but tracing off."""
    _fresh_disabled()
    pc, _, _ = small_problem
    benchmark(lambda: fsi(pc, BENCH_SMALL.c, num_threads=1))


# ----------------------------------------------------------------------
# the CI gate
# ----------------------------------------------------------------------

def _time_per_call(fn, calls: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def measure_overhead() -> dict:
    """Estimate the disabled-path and worker-path costs of one FSI solve.

    Spans, stage entries and ``record_flops`` calls are counted on a
    real (enabled, traced) solve; the per-call costs and the solve time
    are all best-of-N, so the estimates are pessimistic for the budget
    (fast solve, slow calls) rather than flattering.
    """
    pc, _, _ = make_hubbard(BENCH_SMALL, seed=1)

    def solve():
        return fsi(pc, BENCH_SMALL.c, num_threads=1)

    # count the spans, stages and kernel records one solve emits
    telemetry.reset()
    telemetry.configure(sample_rate=1.0)
    with FlopTracer() as tracer:
        solve()
    spans = telemetry.collector().snapshot()
    telemetry.reset()
    spans_per_solve = len(spans)
    stages_per_solve = sum(r["name"] in tracer.stages for r in spans)
    records_per_solve = sum(tracer.calls(name) for name in tracer.stages)

    calls = 100_000

    def disabled_spans():
        for _ in range(calls):
            with telemetry.span("hot"):
                pass

    def traced_stages():
        for _ in range(calls):
            with telemetry.stage("hot"):
                pass

    def traced_records():
        for _ in range(calls):
            record_flops(1.0, 8.0)

    per_span = _time_per_call(disabled_spans, calls)
    with FlopTracer():
        per_stage = _time_per_call(traced_stages, calls)
        with telemetry.stage("hot"):
            per_record = _time_per_call(traced_records, calls)

    # the solve itself, telemetry off, warm caches
    solve()
    solve_seconds = _time_per_call(solve, 1)

    traced = stages_per_solve * per_stage + records_per_solve * per_record
    return {
        "spans_per_solve": spans_per_solve,
        "disabled_ns_per_span": per_span * 1e9,
        "stages_per_solve": stages_per_solve,
        "records_per_solve": records_per_solve,
        "traced_ns_per_stage": per_stage * 1e9,
        "traced_ns_per_record": per_record * 1e9,
        "solve_ms": solve_seconds * 1e3,
        "overhead_fraction": spans_per_solve * per_span / solve_seconds,
        "traced_overhead_fraction": traced / solve_seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero if either overhead exceeds {OVERHEAD_BUDGET:.0%}",
    )
    args = parser.parse_args(argv)

    # Time the solve as a service worker runs it: under the process's
    # parallelism budget (one BLAS thread per team member).
    process_budget()
    stats = measure_overhead()
    print(
        f"disabled-path telemetry: {stats['spans_per_solve']} spans/solve"
        f" x {stats['disabled_ns_per_span']:.0f} ns/span"
        f" over a {stats['solve_ms']:.2f} ms solve"
        f" = {stats['overhead_fraction']:.3%} overhead"
        f" (budget {OVERHEAD_BUDGET:.0%})"
    )
    print(
        f"worker-path stage record: {stats['stages_per_solve']} stages"
        f" x {stats['traced_ns_per_stage']:.0f} ns"
        f" + {stats['records_per_solve']} records"
        f" x {stats['traced_ns_per_record']:.0f} ns"
        f" over a {stats['solve_ms']:.2f} ms solve"
        f" = {stats['traced_overhead_fraction']:.3%} overhead"
        f" (budget {OVERHEAD_BUDGET:.0%})"
    )
    failed = False
    for key, path in (
        ("overhead_fraction", "disabled-path"),
        ("traced_overhead_fraction", "worker-path"),
    ):
        if args.check and stats[key] > OVERHEAD_BUDGET:
            print(f"FAIL: {path} overhead exceeds budget", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
