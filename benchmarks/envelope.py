"""The one record format of the gated ``BENCH_*.json`` files.

Every ``--check`` benchmark script (``bench_stages``, ``bench_delta``,
``bench_spectral``, ``bench_parallel``, ``bench_handoff``) writes::

    {"benchmark": name,
     "host":      cores, machine, python, numpy, BLAS library and the
                  thread count of each loaded BLAS,
     "workload":  the fixed parameters of the run,
     "points":    the measurements, one dict each,
     "gates":     {name: {"metric", the measured value(s),
                          "floor" or "ceiling", "passed"}}}

A gate with ``"enforced": false`` is recorded but cannot fail the run.
``bench_stages``, ``bench_delta``, ``bench_parallel`` and ``bench_handoff`` apply
:func:`~repro.parallel.budget.process_budget` before they measure, so
their ``blas_threads`` is the count the service runs at.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from repro.parallel.budget import blas_threads

__all__ = ["host_record", "write_record"]


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


def write_record(
    path: str, benchmark: str, workload: dict, points: list[dict],
    gates: dict[str, dict],
) -> bool:
    """Write the record to ``path``; return whether every enforced gate
    passed (each failed one is reported on stderr)."""
    record = {
        "benchmark": benchmark,
        "host": host_record(),
        "workload": workload,
        "points": points,
        "gates": gates,
    }
    Path(path).write_text(json.dumps(record, indent=2) + "\n")
    print(f"  wrote {path}")
    failed = [name for name, g in gates.items()
              if g.get("enforced", True) and not g["passed"]]
    for name in failed:
        print(f"FAIL: {name} gate ({gates[name]['metric']})", file=sys.stderr)
    return not failed
