"""Per-stage FSI rates at paper scale, by executed flops.

Times CLS, BSOFI (and its structured QR alone, ``bsofi.qr``) and WRP
one by one on the paper's geometry (10x10 Hubbard lattice, N = 100,
L = 64, c = 8), separately for each selection pattern, and reports each
stage in ms and in achieved GFLOP/s — the measured form of the paper's
Fig. 8 top.  The rate divides the flops the stage executed, as one
untimed run under a :class:`~repro.telemetry.FlopTracer` counts them
inside :func:`repro.telemetry.stage`, by its time.  The Sec. II-C
formula rate stays as a reported column (``paper_gflops``): CLS against
``cls_flops``, the QR against ``bsofi_qr_flops``, BSOFI against
``bsofi_flops`` (the grid, ``7 b^2 N^3``) or ``bsofi_band_flops``, and
WRP against ``wrap_flops``, which charges 3 N^3 per new block where the
gemm walks execute 2 N^3.  BSOFI runs through
:func:`~repro.core.bsofi.bsofi_seeds`, the helper ``fsi`` uses, so
COLUMNS/ROWS time the full seed grid and the diagonal patterns time the
band.  Every stage time is the median of
``--repeats`` rounds, each of which times every point once (so drift
on a shared host does not favour the points timed first); WRP forms
the block inverses it applies on every call, as in ``fsi``.  The
Hubbard matrix carries its exact block inverses; the reported-only
``wrp.lu`` point runs FULL_DIAGONAL WRP on the same blocks without them
(``BlockPCyclic(pc.B)``), which forms each inverse by LU, as every
other matrix does.

The ``--check`` gates compare against figures measured in the same run,
never an absolute time:

* COLUMNS WRP and FULL_DIAGONAL WRP must each reach at least
  :data:`WRP_GEMM_FRACTION` of the N = 100 dgemm rate on one BLAS
  thread, rated by executed flops;
* DIAGONAL BSOFI (the band) must take at most
  :data:`BAND_GRID_RATIO` of COLUMNS BSOFI (the grid).

The result goes to ``BENCH_stages.json`` in the shared envelope of
``benchmarks/envelope.py`` (``host``, ``workload``, ``points``,
``gates``).

Run it with::

    PYTHONPATH=src python benchmarks/bench_stages.py --check
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.workloads import VALIDATION, make_hubbard
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
from repro.core.pcyclic import BlockPCyclic
from repro.core.wrap import wrap, wrap_flops
from repro.parallel.budget import process_budget
from repro import telemetry

from envelope import write_record

#: COLUMNS and FULL_DIAGONAL WRP must reach this share of the same
#: run's dgemm rate.
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


def executed_flops(name: str, fn) -> float:
    """Flops one run of ``fn`` executes, counted inside ``stage(name)``
    (nested stages included)."""
    with telemetry.FlopTracer() as tracer, telemetry.stage(name):
        fn()
    return tracer.total_flops


def measure_stages(repeats: int = 7, seed: int = 1, q: int = 3) -> list[dict]:
    """``{pattern, stage, ms, flops, gflops, paper_flops, paper_gflops}``
    per pattern and stage: ``flops`` executed, ``paper_flops`` by the
    Sec. II-C formulas."""
    pc, _, _ = make_hubbard(VALIDATION, seed=seed)
    generic = BlockPCyclic(pc.B)  # the same blocks, no exact inverses
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
                 pc, seeds, sel, num_threads=1)),
        ]
    # Reported only, and timed last in each round: the LU walk allocates
    # and frees L - b formed inverses, which slowed the BSOFI timed just
    # after it by 2-3 ms on a 2-core host.
    full = Selection(Pattern.FULL_DIAGONAL, L=L, c=C, q=q)
    full_seeds = bsofi_seeds(reduced, Pattern.FULL_DIAGONAL)
    cases.append(
        (Pattern.FULL_DIAGONAL, "wrp.lu",
         wrap_flops(L, N, C, Pattern.FULL_DIAGONAL),
         lambda: wrap(generic, full_seeds, full, num_threads=1)))
    ms = _interleaved_median_ms([fn for *_, fn in cases], repeats)
    points = []
    for (pattern, name, paper, fn), t in zip(cases, ms):
        flops = executed_flops(name, fn)
        points.append({
            "pattern": pattern.value, "stage": name, "ms": t,
            "flops": flops, "gflops": flops / (t * 1e6),
            "paper_flops": paper, "paper_gflops": paper / (t * 1e6),
        })
    return points


def _point(points: list[dict], pattern: Pattern, stage: str) -> dict:
    return next(p for p in points
                if p["pattern"] == pattern.value and p["stage"] == stage)


def _wrp_gate(points: list[dict], pattern: Pattern, gemm: float) -> dict:
    """The WRP-rate gate of ``pattern``: at least
    :data:`WRP_GEMM_FRACTION` of the same run's dgemm rate, by executed
    flops."""
    wrp = _point(points, pattern, "wrp")["gflops"]
    return {
        "metric": f"{pattern.value} WRP executed GFLOP/s / dgemm GFLOP/s"
                  " (N=100, same run)",
        "dgemm_gflops": gemm,
        "wrp_gflops": wrp,
        "ratio": wrp / gemm,
        "floor": WRP_GEMM_FRACTION,
        "passed": wrp / gemm >= WRP_GEMM_FRACTION,
    }


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
    band = _point(points, Pattern.DIAGONAL, "bsofi")["ms"]
    full = _point(points, Pattern.COLUMNS, "bsofi")["ms"]
    gates = {
        "wrp": _wrp_gate(points, Pattern.COLUMNS, gemm),
        "wrp_full_diagonal": _wrp_gate(points, Pattern.FULL_DIAGONAL, gemm),
        "bsofi_band": {
            "metric": "diagonal BSOFI ms / columns BSOFI ms (same run)",
            "band_ms": band,
            "grid_ms": full,
            "ratio": band / full,
            "ceiling": BAND_GRID_RATIO,
            "passed": band / full <= BAND_GRID_RATIO,
        },
    }
    print(f"dgemm N=100, {budget.blas} BLAS thread(s): {gemm:.1f} GFLOP/s")
    print(f"  {'pattern':>13} {'stage':>8}  {'ms':>8}  GFLOP/s executed (paper)")
    for p in points:
        print(f"  {p['pattern']:>13} {p['stage']:>8}: {p['ms']:8.2f}"
              f"  {p['gflops']:6.1f} ({p['paper_gflops']:5.1f})")
    for key, name in (("wrp", "COLUMNS"), ("wrp_full_diagonal", "FULL_DIAGONAL")):
        gate = gates[key]
        print(f"{name} WRP at {gate['ratio']:.0%} of dgemm"
              f" (floor {WRP_GEMM_FRACTION:.0%}):"
              f" {'PASS' if gate['passed'] else 'FAIL'}")
    print(f"DIAGONAL BSOFI at {band / full:.0%} of COLUMNS BSOFI"
          f" (ceiling {BAND_GRID_RATIO:.0%}):"
          f" {'PASS' if gates['bsofi_band']['passed'] else 'FAIL'}")
    passed = write_record(
        args.json_out, "fsi-stages",
        {"lattice": f"{VALIDATION.nx}x{VALIDATION.ny}",
         "N": VALIDATION.nx * VALIDATION.ny, "L": VALIDATION.L,
         "c": C, "q": 3, "repeats": args.repeats, "blas_threads": budget.blas},
        points, gates,
    )
    return 0 if passed or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
