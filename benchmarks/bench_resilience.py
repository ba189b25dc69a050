"""Guard overhead: the health battery must stay within 5% of a solve.

The resilience contract (``docs/robustness.md``) is that running FSI
through the :mod:`repro.resilience.guards` battery — NaN/Inf screens on
the input and every stage output, a sampled 1-norm condition estimate
of the CLS clustered blocks, and a sampled BSOFI identity residual —
costs at most a few percent of the solve it protects, because guarded
solves are the *default* in the service layer.  This file pins that
contract down twice:

* pytest-benchmark timings of guarded vs unguarded solves and of the
  individual guard primitives, so regressions show up next to the
  other wall-clock numbers;
* a standalone ``--check`` mode (run by CI) that measures the guarded
  slowdown on a real solve and **fails if it exceeds 5%**.  It also
  prints, without gating it, the battery's share of a DIAGONAL solve:
  that solve skips the seed grid (BSOFI computes only the band the
  guards read), so the same battery is a larger share of it.

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_resilience.py --check
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.bench.workloads import BENCH_MEDIUM, BENCH_SMALL, make_hubbard
from repro.core.bsofi import bsofi_seeds
from repro.core.cls import cls
from repro.core.fsi import fsi, fsi_resilient
from repro.core.patterns import Pattern
from repro.resilience.guards import (
    GuardConfig,
    check_cluster_conditions,
    check_seed_residual,
    estimate_condition,
    sample_indices,
    screen_finite,
)

#: Maximum tolerated guarded-solve slowdown relative to unguarded.
OVERHEAD_BUDGET = 0.05

GUARDS = GuardConfig()


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------

@pytest.mark.benchmark(group="resilience")
def bench_fsi_unguarded(benchmark, small_problem):
    pc, _, _ = small_problem
    benchmark(lambda: fsi(pc, BENCH_SMALL.c, num_threads=1))


@pytest.mark.benchmark(group="resilience")
def bench_fsi_guarded(benchmark, small_problem):
    """The full battery on the solve it protects (the 5% contract)."""
    pc, _, _ = small_problem
    benchmark(lambda: fsi(pc, BENCH_SMALL.c, num_threads=1, guards=GUARDS))


@pytest.mark.benchmark(group="resilience")
def bench_fsi_resilient_healthy(benchmark, small_problem):
    """The ladder entry point when nothing trips (the common case)."""
    pc, _, _ = small_problem
    benchmark(
        lambda: fsi_resilient(pc, BENCH_SMALL.c, num_threads=1, guards=GUARDS)
    )


@pytest.mark.benchmark(group="resilience")
def bench_screen_finite(benchmark, small_problem):
    pc, _, _ = small_problem
    benchmark(lambda: screen_finite("input", pc.B))


@pytest.mark.benchmark(group="resilience")
def bench_estimate_condition(benchmark, small_problem):
    pc, _, _ = small_problem
    block = cls(pc, BENCH_SMALL.c, 0).B[0]
    benchmark(lambda: estimate_condition(block))


@pytest.mark.benchmark(group="resilience")
def bench_check_cluster_conditions(benchmark, small_problem):
    pc, _, _ = small_problem
    B = cls(pc, BENCH_SMALL.c, 0).B
    benchmark(lambda: check_cluster_conditions(B, GUARDS))


# ----------------------------------------------------------------------
# the CI gate
# ----------------------------------------------------------------------

def _best_of(fn, repeats: int = 7, calls: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def measure_overhead(pattern: Pattern = Pattern.COLUMNS) -> dict:
    """Sum of per-check costs against a production-shaped solve.

    Same methodology as the ``bench_telemetry`` gate: every check the
    guarded path adds is timed directly on the *real* stage arrays of a
    medium-workload solve (N=36, L=40 — the guards carry a fixed Python
    cost of a few hundred microseconds, so the contract is stated
    against production-shaped solves, not the millisecond toy tier).
    The checks are strictly additive to the solve — none overlaps or
    replaces solver work — so their summed cost over the best-of solve
    time bounds the guarded slowdown.  Differencing two end-to-end
    timings instead would put a ~5% machine-drift noise floor on a 5%
    budget; the component costs are microseconds, measurable to a few
    percent with tight best-of loops.  The BSOFI checks read the band
    of the seed inverse, as in ``fsi``.
    """
    pc, _, _ = make_hubbard(BENCH_MEDIUM, seed=1)
    c = BENCH_MEDIUM.c

    # the real arrays each check sees in a guarded solve
    reduced = cls(pc, c, 0, num_threads=1)
    band = bsofi_seeds(reduced, pattern).band
    result = fsi(pc, c, pattern=pattern, q=0, num_threads=1)
    data = result.selected.data
    picked = sample_indices(len(data), GUARDS.result_screen_samples)

    components = {
        "screen_input": lambda: screen_finite("input", pc.B),
        "screen_cls": lambda: screen_finite("cls", reduced.B),
        "screen_bsofi": lambda: screen_finite("bsofi", *band.arrays),
        # as in fsi: one gather of the sampled blocks, one screen
        "screen_result": lambda: screen_finite("result", data[picked]),
        "condition": lambda: check_cluster_conditions(reduced.B, GUARDS),
        "residual": lambda: check_seed_residual(reduced.B, band, GUARDS),
    }
    costs = {
        name: _best_of(fn, repeats=7, calls=50)
        for name, fn in components.items()
    }
    battery = sum(costs.values())

    def solve_once():
        fsi(pc, c, pattern=pattern, q=0, num_threads=1)

    solve_once()  # warm caches
    solve = _best_of(solve_once, repeats=7)

    return {
        "component_us": {k: v * 1e6 for k, v in costs.items()},
        "battery_us": battery * 1e6,
        "solve_ms": solve * 1e3,
        "overhead_fraction": battery / solve,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero if overhead exceeds {OVERHEAD_BUDGET:.0%}",
    )
    args = parser.parse_args(argv)

    stats = measure_overhead()
    for name, us in stats["component_us"].items():
        print(f"  {name:<16} {us:8.1f} us")
    print(
        f"numerical guards: {stats['battery_us']:.0f} us battery on a"
        f" {stats['solve_ms']:.2f} ms solve"
        f" = {stats['overhead_fraction']:.3%} overhead"
        f" (budget {OVERHEAD_BUDGET:.0%})"
    )
    diag = measure_overhead(Pattern.DIAGONAL)
    print(
        f"  DIAGONAL solve (not gated): {diag['battery_us']:.0f} us battery"
        f" on a {diag['solve_ms']:.2f} ms solve"
        f" = {diag['overhead_fraction']:.3%}"
    )
    if args.check and stats["overhead_fraction"] > OVERHEAD_BUDGET:
        print("FAIL: guard overhead exceeds budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
