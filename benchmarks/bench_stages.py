"""Per-stage FSI rates at paper scale, against the Sec. II-C flop counts.

Times CLS, BSOFI (and its structured QR alone, ``bsofi.qr``) and WRP
one by one on the paper's geometry (10x10 Hubbard lattice, N = 100,
L = 64, c = 8), separately for each selection pattern, and reports each
stage in ms and in achieved GFLOP/s — the measured form of the paper's
Fig. 8 top.  BSOFI runs through :func:`~repro.core.bsofi.bsofi_seeds`,
the helper ``fsi`` uses, so COLUMNS/ROWS time the full seed grid
(against ``bsofi_flops``, the paper's ``7 b^2 N^3``) and the diagonal
patterns time the band (against ``bsofi_band_flops``).  CLS is rated
against ``cls_flops``, the QR against ``bsofi_qr_flops`` and WRP
against ``wrap_flops``.  Every stage time is the median of
``--repeats`` rounds, each of which times every point once (so drift
on a shared host does not favour the points timed first); WRP runs
with a fresh adjacency operator each time, so its LU and inverse caches
are part of its cost, as in ``fsi``.

The ``--check`` gates compare against figures measured in the same run,
never an absolute time:

* COLUMNS WRP must reach at least :data:`WRP_GEMM_FRACTION` of the
  N = 100 dgemm rate on one BLAS thread;
* DIAGONAL BSOFI (the band) must take at most
  :data:`BAND_GRID_RATIO` of COLUMNS BSOFI (the grid).

The result goes to ``BENCH_stages.json`` (envelope: ``host``,
``workload``, ``points``, ``gates``).

Run it with::

    PYTHONPATH=src python benchmarks/bench_stages.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.workloads import VALIDATION, make_hubbard
from repro.core.adjacency import AdjacencyOps
from repro.core.bsofi import (
    GRID_PATTERNS,
    bsofi_band_flops,
    bsofi_flops,
    bsofi_qr,
    bsofi_qr_flops,
    bsofi_seeds,
)
from repro.core.cls import cls, cls_flops
from repro.core.patterns import Pattern, Selection
from repro.core.wrap import wrap, wrap_flops
from repro.parallel.budget import blas_threads, process_budget

#: COLUMNS WRP must reach this share of the same run's dgemm rate.
WRP_GEMM_FRACTION = 0.35

#: DIAGONAL BSOFI (band) may take at most this share of COLUMNS BSOFI
#: (grid) in the same run.
BAND_GRID_RATIO = 0.5

#: Cluster size of the paper-scale point (c ~ sqrt(L)).
C = VALIDATION.c

PATTERNS = (Pattern.COLUMNS, Pattern.ROWS, Pattern.FULL_DIAGONAL, Pattern.DIAGONAL)


def _interleaved_median_ms(fns: list, repeats: int) -> list[float]:
    """Median ms of each callable over ``repeats`` rounds; each round
    runs every callable once, so drift on a shared host spreads over
    all of them instead of biasing the ones timed first.  One untimed
    warm-up round comes first."""
    times: list[list[float]] = [[] for _ in fns]
    for round_ in range(repeats + 1):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            if round_:
                ts.append(time.perf_counter() - t0)
    return [1e3 * statistics.median(ts) for ts in times]


def dgemm_gflops(n: int = 100, seconds: float = 0.1, repeats: int = 7) -> float:
    """dgemm GFLOP/s at ``n`` (the gate's baseline): the median of
    ``repeats`` timed loops, like the stage times."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    rates = []
    for _ in range(repeats):
        calls, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for _ in range(20):
                np.matmul(a, b, out=out)
            calls += 20
        rates.append(2.0 * n**3 * calls / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def host_record() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def measure_stages(repeats: int = 7, seed: int = 1, q: int = 3) -> list[dict]:
    """``{pattern, stage, ms, flops, gflops}`` per pattern and stage."""
    pc, _, _ = make_hubbard(VALIDATION, seed=seed)
    L, N = pc.L, pc.N
    b = L // C
    reduced = cls(pc, C, q, num_threads=1)
    # (pattern, stage, flops, callable) for every point, timed together.
    cases = []
    for pattern in PATTERNS:
        sel = Selection(pattern, L=L, c=C, q=q)
        seeds = bsofi_seeds(reduced, pattern)
        grid = pattern in GRID_PATTERNS
        cases += [
            (pattern, "cls", cls_flops(L, N, C),
             lambda: cls(pc, C, q, num_threads=1)),
            (pattern, "bsofi.qr", bsofi_qr_flops(b, N),
             lambda: bsofi_qr(reduced)),
            (pattern, "bsofi",
             bsofi_flops(b, N) if grid else bsofi_band_flops(b, N),
             lambda p=pattern: bsofi_seeds(reduced, p)),
            (pattern, "wrp", wrap_flops(L, N, C, pattern),
             lambda sel=sel, seeds=seeds: wrap(
                 pc, seeds, sel, num_threads=1, ops=AdjacencyOps(pc))),
        ]
    ms = _interleaved_median_ms([fn for *_, fn in cases], repeats)
    return [
        {"pattern": pattern.value, "stage": stage, "ms": t, "flops": flops,
         "gflops": flops / (t * 1e6)}
        for (pattern, stage, flops, _), t in zip(cases, ms)
    ]


def _point(points: list[dict], pattern: Pattern, stage: str) -> dict:
    return next(p for p in points
                if p["pattern"] == pattern.value and p["stage"] == stage)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a gate fails")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_stages.json"),
    )
    args = parser.parse_args(argv)

    budget = process_budget()
    gemm = dgemm_gflops()
    points = measure_stages(repeats=args.repeats)
    wrp = _point(points, Pattern.COLUMNS, "wrp")
    ratio = wrp["gflops"] / gemm
    band = _point(points, Pattern.DIAGONAL, "bsofi")["ms"]
    full = _point(points, Pattern.COLUMNS, "bsofi")["ms"]
    gates = {
        "wrp": {
            "metric": "columns WRP GFLOP/s / dgemm GFLOP/s (N=100, same run)",
            "dgemm_gflops": gemm,
            "wrp_gflops": wrp["gflops"],
            "ratio": ratio,
            "floor": WRP_GEMM_FRACTION,
            "passed": ratio >= WRP_GEMM_FRACTION,
        },
        "bsofi_band": {
            "metric": "diagonal BSOFI ms / columns BSOFI ms (same run)",
            "band_ms": band,
            "grid_ms": full,
            "ratio": band / full,
            "ceiling": BAND_GRID_RATIO,
            "passed": band / full <= BAND_GRID_RATIO,
        },
    }
    passed = all(g["passed"] for g in gates.values())
    record = {
        "benchmark": "fsi-stages",
        "host": host_record(),
        "workload": {"lattice": f"{VALIDATION.nx}x{VALIDATION.ny}",
                     "N": VALIDATION.nx * VALIDATION.ny, "L": VALIDATION.L,
                     "c": C, "q": 3, "repeats": args.repeats,
                     "blas_threads": budget.blas},
        "points": points,
        "gates": gates,
    }
    Path(args.json_out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"dgemm N=100, {budget.blas} BLAS thread(s): {gemm:.1f} GFLOP/s")
    for p in points:
        print(f"  {p['pattern']:>13} {p['stage']:>8}: {p['ms']:8.2f} ms"
              f" {p['gflops']:6.1f} GFLOP/s")
    print(f"COLUMNS WRP at {ratio:.0%} of dgemm (floor {WRP_GEMM_FRACTION:.0%}):"
          f" {'PASS' if gates['wrp']['passed'] else 'FAIL'}")
    print(f"DIAGONAL BSOFI at {band / full:.0%} of COLUMNS BSOFI"
          f" (ceiling {BAND_GRID_RATIO:.0%}):"
          f" {'PASS' if gates['bsofi_band']['passed'] else 'FAIL'}")
    print(f"  wrote {args.json_out}")
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
