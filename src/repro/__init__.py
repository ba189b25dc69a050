"""repro — Fast Selected Inversion (FSI) for block p-cyclic matrices.

A complete reproduction of *"A Fast Selected Inversion Algorithm for
Green's Function Calculation in Many-body Quantum Monte Carlo
Simulations"* (Jiang, Bai, Scalettar — IPDPS 2016):

* :mod:`repro.core` — the FSI algorithm (CLS block cyclic reduction,
  BSOFI structured orthogonal inversion, adjacency-relation wrapping),
  selection patterns S1-S4, baselines and complexity tables;
* :mod:`repro.hubbard` — the Hubbard-model substrate (lattice, kinetic
  propagator, HS fields, block p-cyclic matrix assembly);
* :mod:`repro.dqmc` — a working DQMC engine (Metropolis sweeps with
  rank-1 updates, UDT stabilisation, equal-time + SPXX measurements);
* :mod:`repro.parallel` — the hybrid runtime (:mod:`repro.transport`
  ranks + OpenMP-style threads) running Alg. 3;
* :mod:`repro.telemetry` — spans, metrics and per-stage flop tracing;
* :mod:`repro.perf` — the Edison machine model and the analytic
  performance model that regenerates the paper's figures.

Quickstart::

    import numpy as np
    from repro import build_hubbard_matrix, fsi, Pattern

    M, model, field = build_hubbard_matrix(10, 10, L=64, U=2.0, beta=1.0,
                                           rng=0)
    result = fsi(M, c=8, pattern=Pattern.COLUMNS)
    G_block = result.selected[(5, 8)]        # one N x N block of M^{-1}
"""

from .core import (
    BlockPCyclic,
    FSIResult,
    Pattern,
    SelectedInversion,
    Selection,
    bsofi,
    cls,
    complexity_table,
    fsi,
    full_lu_inverse,
    lu_selected_inversion,
    random_pcyclic,
    recommend_c,
    wrap,
)
from .dqmc import DQMC, DQMCConfig, DQMCResult
from .hubbard import (
    HSField,
    HubbardModel,
    RectangularLattice,
    build_hubbard_matrix,
)
from .core.solve import PCyclicSolver, determinant
from .parallel import HybridConfig, run_fsi_fleet, run_selected_fleet
from .service import (
    GreensJob,
    GreensService,
    JobResult,
    ModelSpec,
    ServiceConfig,
)
from .telemetry import FlopTracer
from .transport import SimMPI
from .tridiag import BlockTridiagonal, fsi_tridiagonal

__version__ = "1.0.0"

__all__ = [
    "BlockPCyclic",
    "DQMC",
    "DQMCConfig",
    "DQMCResult",
    "FSIResult",
    "FlopTracer",
    "GreensJob",
    "GreensService",
    "HSField",
    "HubbardModel",
    "HybridConfig",
    "JobResult",
    "ModelSpec",
    "PCyclicSolver",
    "Pattern",
    "RectangularLattice",
    "SelectedInversion",
    "Selection",
    "ServiceConfig",
    "SimMPI",
    "BlockTridiagonal",
    "bsofi",
    "build_hubbard_matrix",
    "determinant",
    "fsi_tridiagonal",
    "cls",
    "complexity_table",
    "fsi",
    "full_lu_inverse",
    "lu_selected_inversion",
    "random_pcyclic",
    "recommend_c",
    "run_fsi_fleet",
    "run_selected_fleet",
    "wrap",
    "__version__",
]
