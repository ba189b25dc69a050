"""Performance substrate: the Edison machine model and the analytic
performance model used to regenerate the paper's figures.  (Measured
flops come from :func:`repro.telemetry.stage`, read through
:class:`repro.telemetry.FlopTracer`.)
"""

from .machine import EDISON, MachineSpec, fsi_rank_memory_bytes
from .tuner import TuningResult, enumerate_configs, tune_hybrid

__all__ = [
    "EDISON",
    "MachineSpec",
    "TuningResult",
    "enumerate_configs",
    "fsi_rank_memory_bytes",
    "tune_hybrid",
]
