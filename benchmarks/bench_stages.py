"""Per-stage FSI rates at paper scale, against the Sec. II-C flop counts.

Times CLS, BSOFI and WRP one by one on the paper's geometry (10x10
Hubbard lattice, N = 100, L = 64, c = 8) for each selection pattern,
and reports each stage in ms and in achieved GFLOP/s against
``cls_flops`` / ``bsofi_flops`` / ``wrap_flops`` — the measured form of
the paper's Fig. 8 top.  Every stage time is the median of
``--repeats`` runs; WRP runs with a fresh adjacency operator each time,
so its LU and inverse caches are part of its cost, as in ``fsi``.

The ``--check`` gate compares against a rate measured in the same run,
never an absolute time: COLUMNS WRP must reach at least
:data:`WRP_GEMM_FRACTION` of the N = 100 dgemm rate on one BLAS thread.
The result goes to ``BENCH_stages.json`` (envelope: ``host``,
``workload``, ``points``, ``gate``).

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
from repro.core.bsofi import bsofi, bsofi_flops
from repro.core.cls import cls, cls_flops
from repro.core.patterns import Pattern, Selection
from repro.core.wrap import wrap, wrap_flops
from repro.parallel.budget import blas_threads, process_budget

#: COLUMNS WRP must reach this share of the same run's dgemm rate.
WRP_GEMM_FRACTION = 0.35

#: Cluster size of the paper-scale point (c ~ sqrt(L)).
C = VALIDATION.c

PATTERNS = (Pattern.COLUMNS, Pattern.ROWS, Pattern.FULL_DIAGONAL, Pattern.DIAGONAL)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


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
    reduced = cls(pc, C, q, num_threads=1)
    seeds = bsofi(reduced)
    shared = {
        "cls": (cls_flops(L, N, C),
                _median_ms(lambda: cls(pc, C, q, num_threads=1), repeats)),
        "bsofi": (bsofi_flops(L // C, N),
                  _median_ms(lambda: bsofi(reduced), repeats)),
    }
    points = []
    for pattern in PATTERNS:
        sel = Selection(pattern, L=L, c=C, q=q)
        stages = dict(shared)
        stages["wrp"] = (
            wrap_flops(L, N, C, pattern),
            _median_ms(
                lambda sel=sel: wrap(pc, seeds, sel, num_threads=1,
                                     ops=AdjacencyOps(pc)),
                repeats,
            ),
        )
        for stage, (flops, ms) in stages.items():
            points.append({
                "pattern": pattern.value, "stage": stage, "ms": ms,
                "flops": flops, "gflops": flops / (ms * 1e6),
            })
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the WRP gate fails")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--json-out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_stages.json"),
    )
    args = parser.parse_args(argv)

    budget = process_budget()
    gemm = dgemm_gflops()
    points = measure_stages(repeats=args.repeats)
    wrp = next(p for p in points
               if p["pattern"] == Pattern.COLUMNS.value and p["stage"] == "wrp")
    ratio = wrp["gflops"] / gemm
    passed = ratio >= WRP_GEMM_FRACTION
    record = {
        "benchmark": "fsi-stages",
        "host": host_record(),
        "workload": {"lattice": f"{VALIDATION.nx}x{VALIDATION.ny}",
                     "N": VALIDATION.nx * VALIDATION.ny, "L": VALIDATION.L,
                     "c": C, "q": 3, "repeats": args.repeats,
                     "blas_threads": budget.blas},
        "points": points,
        "gate": {
            "metric": "columns WRP GFLOP/s / dgemm GFLOP/s (N=100, same run)",
            "dgemm_gflops": gemm,
            "wrp_gflops": wrp["gflops"],
            "ratio": ratio,
            "floor": WRP_GEMM_FRACTION,
            "passed": passed,
        },
    }
    Path(args.json_out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"dgemm N=100, {budget.blas} BLAS thread(s): {gemm:.1f} GFLOP/s")
    for p in points:
        print(f"  {p['pattern']:>13} {p['stage']:>5}: {p['ms']:8.2f} ms"
              f" {p['gflops']:6.1f} GFLOP/s")
    print(f"COLUMNS WRP at {ratio:.0%} of dgemm (floor {WRP_GEMM_FRACTION:.0%}):"
          f" {'PASS' if passed else 'FAIL'}")
    print(f"  wrote {args.json_out}")
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
