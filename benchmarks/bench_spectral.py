"""Spectral sweeps: the shared factorisation must crush per-shift FSI.

The resolvent path (``repro.spectral``, see ``docs/spectral.md``)
computes selected blocks of ``G(z) = (zI - M)^{-1}`` over an
omega-grid.  Its whole point is that the omega-independent work — the
``2b(c-1)N^3`` CLS clustering and the block inverses of the wrapping — is
factored **once** and shared by every shift, leaving only the
``~7b^2N^3`` reduced inversion plus wrapping per frequency.  The
naive alternative rebuilds the shifted p-cyclic matrix and runs the
full FSI pipeline per shift.  This file pins that contract down twice:

* pytest-benchmark timings of the factored sweep next to the naive
  per-shift loop at bench scale, so regressions show up with the other
  wall-clock numbers;
* a standalone ``--check`` mode (run by CI) that measures the factored
  sweep against naive per-shift refactorisation at tier-1 grid scale
  (``L = 64`` with the sweep-optimal cluster choice ``c = L``) and
  **fails below a 3x speedup**.  It cross-checks the swept blocks
  against the naive path to 1e-8 so the gate can never pass on a
  fast-but-wrong sweep,
  measures the complex guard battery a guarded shift runs (with the
  factor's one-time screen of the reduced chain and condition estimate
  amortised over the grid) against the repo-wide 5% budget, reports
  the unguarded per-shift time at ``c = 32`` (the served ``b = 2``) and
  ``c = 8``, and writes the measurement to
  ``BENCH_spectral.json`` (the shared envelope of
  ``benchmarks/envelope.py``) — the committed perf-trajectory point for
  the spectral path.

Run the gate locally with::

    PYTHONPATH=src python benchmarks/bench_spectral.py --check
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import (
    BENCH_SMALL,
    VALIDATION,
    Workload,
    make_hubbard,
)
from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.parallel.budget import process_budget
from repro.resilience.guards import GuardConfig
from repro.spectral import OmegaGrid, ResolventFactor, shifted_pcyclic

from envelope import write_record

#: Minimum factored-sweep speedup over naive per-shift FSI (the CI gate).
SPEEDUP_FLOOR = 3.0

#: Swept blocks must match the naive per-shift path to this error.
ACCURACY_FLOOR = 1e-8

#: Maximum tolerated guarded-sweep slowdown (the repo-wide guard budget).
GUARD_OVERHEAD_BUDGET = 0.05

#: The gate geometry: tier-1 time-slice count with ``c = L`` — for
#: *sweeps* the optimal cluster is larger than the equal-time
#: ``c ~ sqrt(L)`` rule, because the ``2b(c-1)N^3`` CLS stage is paid
#: once per grid rather than once per solve, so per-shift cost is
#: minimised by collapsing the reduced chain all the way to one block.
#: The naive path repays that whole stage at every shift.
SWEEP = Workload("spectral-sweep", nx=10, ny=10, L=64, c=64)


def _naive_sweep(pc, c: int, grid: OmegaGrid, pattern: Pattern):
    """Per-shift refactorisation: shift, full FSI, unscale.  The baseline."""
    out = []
    for z in grid.z:
        shifted, d = shifted_pcyclic(pc, z)
        res = fsi(shifted, c, pattern=pattern, q=0, num_threads=1)
        out.append({kl: blk / d for kl, blk in res.selected.items()})
    return out


# ----------------------------------------------------------------------
# pytest-benchmark timings
# ----------------------------------------------------------------------

GRID_SMALL = OmegaGrid.linear(-4.0, 4.0, 9, 0.5)


@pytest.mark.benchmark(group="spectral")
def bench_factored_sweep(benchmark, small_problem):
    pc, _, _ = small_problem
    benchmark(
        lambda: ResolventFactor(
            pc, BENCH_SMALL.c, pattern=Pattern.DIAGONAL, q=0
        ).sweep(GRID_SMALL, num_threads=1)
    )


@pytest.mark.benchmark(group="spectral")
def bench_naive_sweep(benchmark, small_problem):
    pc, _, _ = small_problem
    benchmark(
        lambda: _naive_sweep(pc, BENCH_SMALL.c, GRID_SMALL, Pattern.DIAGONAL)
    )


@pytest.mark.benchmark(group="spectral")
def bench_factor_only(benchmark, small_problem):
    """The shared setup the sweep amortises: CLS of the unshifted chain
    (block inverses are formed on a shift's first use; DIAGONAL uses
    none)."""
    pc, _, _ = small_problem
    benchmark(
        lambda: ResolventFactor(
            pc, BENCH_SMALL.c, pattern=Pattern.DIAGONAL, q=0
        )
    )


@pytest.mark.benchmark(group="spectral")
def bench_guarded_sweep(benchmark, small_problem):
    """The complex guard battery on the path it protects."""
    pc, _, _ = small_problem
    factor = ResolventFactor(
        pc, BENCH_SMALL.c, pattern=Pattern.DIAGONAL, q=0,
        guards=GuardConfig(),
    )
    benchmark(lambda: factor.sweep(GRID_SMALL, num_threads=1))


# ----------------------------------------------------------------------
# the CI gate
# ----------------------------------------------------------------------

def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_calls(fn, repeats: int = 7, calls: int = 50) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / calls


def measure_sweep(seed: int = 1) -> dict:
    """Factored sweep vs naive per-shift FSI at tier-1 grid scale.

    ``(N, L, c) = (100, 64, 64)`` and a 33-point grid at ``eta = 0.5``.
    The factored side times everything a cold request pays —
    ``ResolventFactor`` construction (CLS + LUs) plus the grid sweep;
    the naive side re-runs the full FSI pipeline per shift.  Accuracy
    of the swept blocks against the naive path is measured alongside,
    globally normalised per shift, so the committed number can never
    come from a divergent fast path.
    """
    w = SWEEP
    pc, _, _ = make_hubbard(w, seed=seed)
    grid = OmegaGrid.linear(-4.0, 4.0, 33, 0.5)
    pattern = Pattern.DIAGONAL

    def factored():
        return ResolventFactor(pc, w.c, pattern=pattern, q=0).sweep(
            grid, num_threads=1
        )

    factored()  # warm BLAS
    factored_s = _best_of(factored)
    naive_s = _best_of(lambda: _naive_sweep(pc, w.c, grid, pattern))

    swept = factored()
    naive = _naive_sweep(pc, w.c, grid, pattern)
    worst = 0.0
    for j in range(grid.n):
        scale = max(np.abs(blk).max() for blk in naive[j].values()) or 1.0
        for kl, blk in naive[j].items():
            err = float(np.abs(swept.blocks[kl][j] - blk).max()) / scale
            worst = max(worst, err)

    return {
        "point": "sweep",
        "N": w.N, "L": w.L, "c": w.c, "n_omega": grid.n,
        "eta": float(grid.etas[0]), "pattern": "diagonal",
        "factored_ms": factored_s * 1e3,
        "naive_ms": naive_s * 1e3,
        "speedup": naive_s / factored_s,
        "max_rel_error": worst,
    }


def measure_guard_overhead(seed: int = 1) -> dict:
    """Per-shift guard battery cost on a paper-validation-scale sweep.

    The service runs spectral chunks under the guard battery by
    default, so the complex screens + condition estimates must fit the
    same 5% budget the equal-time path honours
    (``bench_resilience.py``).  Same methodology as that gate: the
    checks a guarded shift runs (finiteness screens of the BSOFI band
    and one gathered sample of result blocks; the seed residual on the
    band against the shifted chain ``t R``) are timed directly on the
    *real* per-shift arrays of a ``(N, L, c) = (100, 64, 8)`` sweep,
    plus the factor's one-time screen of the unshifted reduced chain
    and its cluster-condition estimate, amortised over the grid's
    shifts.
    Differencing two end-to-end sweep timings would put a machine-drift
    noise floor right on top of the 5% budget, while the component
    costs are microseconds, measurable to a few percent with tight
    best-of loops.  The checks are strictly additive to the sweep, so
    their summed per-shift cost over the best-of unguarded per-shift
    time bounds the slowdown.
    """
    from repro.core.bsofi import bsofi_seeds
    from repro.resilience.guards import (
        check_cluster_conditions,
        check_seed_residual,
        sample_indices,
        screen_finite,
    )
    from repro.spectral.resolvent import shift_scale

    w = VALIDATION
    pc, _, _ = make_hubbard(w, seed=seed)
    grid = OmegaGrid.linear(-4.0, 4.0, 8, 0.5)
    guards = GuardConfig()
    pattern = Pattern.DIAGONAL
    factor = ResolventFactor(pc, w.c, pattern=pattern, q=0)

    # the real arrays each check sees in a guarded sweep: the reduced
    # chain R in its own dtype, and one shift's scale t = s(z)^c
    z = complex(grid.z[grid.n // 2])
    _, s = shift_scale(z)
    t = s**w.c
    reduced = factor._reduced.B
    band = bsofi_seeds(factor._reduced, pattern, t).band
    selected, _ = factor.solve_shift(z, num_threads=1)
    picked = sample_indices(len(selected), guards.result_screen_samples)

    components = {
        "screen_cls": lambda: screen_finite("cls", reduced),
        "screen_bsofi": lambda: screen_finite("bsofi", *band.arrays),
        "screen_result": lambda: screen_finite(
            "result", selected.data[picked]
        ),
        "residual": lambda: check_seed_residual(reduced, band, guards, t=t),
        "condition": lambda: check_cluster_conditions(reduced, guards),
    }
    costs = {
        name: _best_of_calls(fn, repeats=7, calls=50)
        for name, fn in components.items()
    }
    for once_per_factor in ("screen_cls", "condition"):
        costs[once_per_factor] /= grid.n
    battery = sum(costs.values())

    per_shift = _per_shift_s(factor, grid)
    return {
        "point": "guards",
        "N": w.N, "L": w.L, "c": w.c, "n_omega": grid.n,
        "guard_component_us": {k: v * 1e6 for k, v in costs.items()},
        "guard_battery_us": battery * 1e6,
        "shift_ms": per_shift * 1e3,
        "guard_overhead": battery / per_shift,
    }


def _per_shift_s(factor: ResolventFactor, grid: OmegaGrid) -> float:
    """Best-of-5 unguarded per-shift time of ``factor`` over ``grid``."""
    factor.sweep(grid, num_threads=1)  # warm caches
    sweep_s = _best_of(lambda: factor.sweep(grid, num_threads=1), repeats=5)
    return sweep_s / grid.n


def measure_shifts(seed: int = 1) -> list[dict]:
    """Reported-only per-shift points: an unguarded DIAGONAL 8-point
    sweep at ``(N, L) = (100, 64)``, with ``c = 32`` (the ``b = 2`` the
    spectral serving workload runs) and ``c = 8``."""
    w = VALIDATION
    pc, _, _ = make_hubbard(w, seed=seed)
    grid = OmegaGrid.linear(-4.0, 4.0, 8, 0.5)
    points = []
    for c in (32, 8):
        factor = ResolventFactor(pc, c, pattern=Pattern.DIAGONAL, q=0)
        points.append({
            "point": "shift",
            "N": w.N, "L": w.L, "c": c, "b": w.L // c, "n_omega": grid.n,
            "pattern": "diagonal",
            "shift_ms": _per_shift_s(factor, grid) * 1e3,
        })
    return points


def main(argv: list[str] | None = None) -> int:
    process_budget()  # measure at the BLAS thread count the service runs
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero below a {SPEEDUP_FLOOR:.0f}x speedup, above"
             f" {ACCURACY_FLOOR:.0e} error, or above"
             f" {GUARD_OVERHEAD_BUDGET:.0%} guard overhead",
    )
    parser.add_argument(
        "--json-out",
        default=str(
            Path(__file__).resolve().parents[1] / "BENCH_spectral.json"
        ),
        help="where to write the measurement record",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sweep = measure_sweep(seed=args.seed)
    guard = measure_guard_overhead(seed=args.seed)
    shifts = measure_shifts(seed=args.seed)
    print(
        f"factored sweep: {sweep['factored_ms']:.1f} ms vs"
        f" {sweep['naive_ms']:.1f} ms naive per-shift"
        f" = {sweep['speedup']:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)"
        f" at (N, L, c) = ({sweep['N']}, {sweep['L']}, {sweep['c']}),"
        f" {sweep['n_omega']} shifts"
    )
    print(
        f"  max error vs naive path: {sweep['max_rel_error']:.3e}"
        f" (floor {ACCURACY_FLOOR:.0e})"
    )
    print(
        f"  guard battery: {guard['guard_battery_us']:.0f} us on a"
        f" {guard['shift_ms']:.2f} ms shift at (N, L, c) ="
        f" ({guard['N']}, {guard['L']}, {guard['c']})"
        f" = {guard['guard_overhead']:.3%} overhead"
        f" (budget {GUARD_OVERHEAD_BUDGET:.0%})"
    )
    for point in shifts:
        print(
            f"  unguarded shift at (N, L, c) = ({point['N']}, {point['L']},"
            f" {point['c']}): {point['shift_ms']:.2f} ms (reported only)"
        )
    gates = {
        "speedup": {
            "metric": "naive per-shift ms / factored sweep ms (same run)",
            "speedup": sweep["speedup"],
            "floor": SPEEDUP_FLOOR,
            "passed": bool(sweep["speedup"] >= SPEEDUP_FLOOR),
        },
        "accuracy": {
            "metric": "max error of the swept blocks vs the naive path",
            "max_rel_error": sweep["max_rel_error"],
            "ceiling": ACCURACY_FLOOR,
            "passed": bool(sweep["max_rel_error"] <= ACCURACY_FLOOR),
        },
        "guard_overhead": {
            "metric": "guard battery us / unguarded shift us (same run)",
            "guard_overhead": guard["guard_overhead"],
            "ceiling": GUARD_OVERHEAD_BUDGET,
            "passed": bool(guard["guard_overhead"] <= GUARD_OVERHEAD_BUDGET),
        },
    }
    workload = {"lattice": f"{SWEEP.nx}x{SWEEP.ny}", "seed": args.seed,
                "sweep_eta": sweep["eta"], "pattern": "diagonal"}
    passed = write_record(
        args.json_out, "spectral-sweep", workload, [sweep, guard, *shifts],
        gates
    )
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
