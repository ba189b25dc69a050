"""Delta serving: a warm Sherman–Morrison update must crush a full solve.

The incremental path (``core/smw.py`` + the scheduler fast path, see
``docs/incremental.md``) answers a request that differs from a cached
base by ``k`` HS flips with one rank-``k`` Woodbury application —
O(L N^2 k) against the O(b L N^3) of a fresh FSI solve.  This file pins
that contract down twice:

* pytest-benchmark timings of warm single-flip and rank-8 updates next
  to the full solve, so regressions show up with the other wall-clock
  numbers;
* a standalone ``--check`` mode (run by CI) that measures the warm
  single-flip delta against the full solve at paper validation scale
  (``(N, L, c) = (100, 64, 8)`` — L >= 64) and **fails below a 5x
  speedup**.  It also re-verifies the updated blocks against a fresh
  solve to 1e-8, so the gate can never pass on a fast-but-wrong path,
  and writes the measurement to ``BENCH_delta.json`` (the shared
  envelope of ``benchmarks/envelope.py``) — the repo's committed
  perf-trajectory point for the delta path.

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_delta.py --check
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import BENCH_SMALL, VALIDATION, make_hubbard
from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.core.smw import PCyclicWoodbury, diag_flips
from repro.parallel.budget import process_budget

from envelope import write_record

#: Minimum warm single-flip speedup over the full solve (the CI gate).
SPEEDUP_FLOOR = 5.0

#: Served blocks must match a fresh solve to this relative error.
ACCURACY_FLOOR = 1e-8


def _flips(field, model, n: int, seed: int = 3):
    """``n`` distinct random flips of ``field`` as (flip list, new field)."""
    rng = np.random.default_rng(seed)
    flipped = field.copy()
    positions: set[tuple[int, int]] = set()
    while len(positions) < n:
        positions.add(
            (int(rng.integers(field.L)), int(rng.integers(field.N)))
        )
    for sl, site in positions:
        flipped.flip(sl, site)
    coupling = model.spin_factor(+1) * model.nu
    return diag_flips(field.h, flipped.h, coupling), flipped


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def warm_delta_small():
    pc, model, field = make_hubbard(BENCH_SMALL, seed=1)
    base = fsi(pc, BENCH_SMALL.c, pattern=Pattern.FULL_DIAGONAL, q=0)
    state = PCyclicWoodbury(pc, BENCH_SMALL.c, 0)
    return state, base.selected, model, field


@pytest.mark.benchmark(group="delta")
def bench_full_solve(benchmark, small_problem):
    pc, _, _ = small_problem
    benchmark(
        lambda: fsi(
            pc, BENCH_SMALL.c, pattern=Pattern.FULL_DIAGONAL, q=0,
            num_threads=1,
        )
    )


@pytest.mark.benchmark(group="delta")
def bench_delta_rank1_warm(benchmark, warm_delta_small):
    state, blocks, model, field = warm_delta_small
    flips, _ = _flips(field, model, 1)
    benchmark(lambda: state.update_blocks(blocks, flips))


@pytest.mark.benchmark(group="delta")
def bench_delta_rank8_warm(benchmark, warm_delta_small):
    state, blocks, model, field = warm_delta_small
    flips, _ = _flips(field, model, 8)
    benchmark(lambda: state.update_blocks(blocks, flips))


@pytest.mark.benchmark(group="delta")
def bench_delta_cold_factor(benchmark, small_problem):
    """Cold-base cost: the CLS and reduced-chain QR the LRU amortises away."""
    pc, _, _ = small_problem
    benchmark(lambda: PCyclicWoodbury(pc, BENCH_SMALL.c, 0))


# ----------------------------------------------------------------------
# the CI gate
# ----------------------------------------------------------------------

def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_delta(seed: int = 1) -> dict:
    """Warm single-flip delta vs full solve at paper validation scale.

    ``(N, L, c) = (100, 64, 8)`` — the Sec. V-A geometry, satisfying the
    gate's L >= 64 requirement.  The Woodbury state is factored once on
    the base's own clustering ``(c, q)``, as the scheduler's per-base
    LRU holds it between sweep requests, and the timed region is one
    rank-1 ``update_blocks`` of the base's block array on the full
    diagonal; the baseline is the best-of full FSI solve for the
    flipped field.  Accuracy of the served blocks against that
    fresh solve is measured alongside, so the number this file commits
    can never come from a divergent update.
    """
    w = VALIDATION
    pc, model, field = make_hubbard(w, seed=seed)
    base = fsi(pc, w.c, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1)
    blocks = base.selected
    flips, flipped = _flips(field, model, 1, seed=seed + 1)

    state = PCyclicWoodbury(pc, w.c, 0)  # factor once: the warm-base state
    state.update_blocks(blocks, flips)  # warm caches
    delta_s = _best_of(lambda: state.update_blocks(blocks, flips))

    pc_new = model.build_matrix(flipped, +1)
    fsi(pc_new, w.c, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1)
    solve_s = _best_of(
        lambda: fsi(
            pc_new, w.c, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1
        )
    )

    updated, report = state.update_blocks(blocks, flips)
    ref = fsi(pc_new, w.c, pattern=Pattern.FULL_DIAGONAL, q=0, num_threads=1)
    worst = 0.0
    for kl, blk in updated.items():
        refb = ref.selected[kl]
        scale = float(np.linalg.norm(refb)) or 1.0
        worst = max(worst, float(np.linalg.norm(blk - refb)) / scale)

    return {
        "workload": {"N": w.N, "L": w.L, "c": w.c, "pattern": "full_diagonal",
                     "rank": 1},
        "delta_ms": delta_s * 1e3,
        "solve_ms": solve_s * 1e3,
        "speedup": solve_s / delta_s,
        "max_rel_error": worst,
        "solve_residual": report.solve_residual,
        "capacitance_cond": report.capacitance_cond,
    }


def main(argv: list[str] | None = None) -> int:
    process_budget()  # measure at the BLAS thread count the service runs
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero below a {SPEEDUP_FLOOR:.0f}x speedup or"
             f" above {ACCURACY_FLOOR:.0e} relative error",
    )
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_delta.json"),
        help="where to write the measurement record",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    stats = measure_delta(seed=args.seed)
    workload = stats.pop("workload")
    print(
        f"warm rank-1 delta: {stats['delta_ms']:.2f} ms vs"
        f" {stats['solve_ms']:.2f} ms full solve"
        f" = {stats['speedup']:.1f}x"
        f" (floor {SPEEDUP_FLOOR:.0f}x) at (N, L, c) ="
        f" ({workload['N']}, {workload['L']}, {workload['c']})"
    )
    print(
        f"  max relative error vs fresh solve: {stats['max_rel_error']:.3e}"
        f" (floor {ACCURACY_FLOOR:.0e});"
        f" solve residual {stats['solve_residual']:.3e}"
    )
    gates = {
        "speedup": {
            "metric": "full solve ms / warm rank-1 delta ms (same run)",
            "speedup": stats["speedup"],
            "floor": SPEEDUP_FLOOR,
            "passed": stats["speedup"] >= SPEEDUP_FLOOR,
        },
        "accuracy": {
            "metric": "max relative error of the delta blocks vs a fresh solve",
            "max_rel_error": stats["max_rel_error"],
            "ceiling": ACCURACY_FLOOR,
            "passed": stats["max_rel_error"] <= ACCURACY_FLOOR,
        },
    }
    passed = write_record(
        args.json_out, "delta-serving", workload, [stats], gates
    )
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
