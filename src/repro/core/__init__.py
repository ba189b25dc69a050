"""The paper's primary contribution: fast selected inversion (FSI).

Public surface:

* :class:`~repro.core.pcyclic.BlockPCyclic` — the matrix container;
* :func:`~repro.core.fsi.fsi` — Alg. 1 (CLS -> BSOFI -> WRP);
* :class:`~repro.core.patterns.Pattern` /
  :class:`~repro.core.patterns.Selection` — the S1-S4 shapes;
* stage entry points (:func:`~repro.core.cls.cls`,
  :func:`~repro.core.bsofi.bsofi`, :func:`~repro.core.wrap.wrap`) for
  callers composing their own pipelines;
* baselines and the closed-form complexity tables.
"""

from .adjacency import AdjacencyOps
from .baselines import full_lu_flops, full_lu_inverse, lu_selected_inversion
from .bsofi import StructuredQR, bsofi, bsofi_flops, bsofi_qr
from .cls import cls, cls_flops, cluster_product
from .custom_wrap import nearest_seed, torus_distance, wrap_blocks
from .flops import (
    ComplexityRow,
    complexity_table,
    explicit_form_flops,
    fsi_table_flops,
    pattern_count_table,
)
from .fsi import FSIResult, fsi, fsi_flops
from .greens_explicit import (
    equal_time_greens,
    explicit_full_inverse,
    explicit_selected_columns,
    greens_block,
    w_matrix,
    z_matrix,
)
from .patterns import Pattern, SelectedInversion, Selection, seed_indices
from .pcyclic import BlockPCyclic, pcyclic_from_general, random_pcyclic, torus_index
from .pdiv import PDIVReport, PDIVResult, fsi_distributed, partition_bounds
from .smw import (
    DeltaReport,
    FactorPairs,
    PCyclicWoodbury,
    RankOneFlip,
    diag_flips,
)
from .solve import PCyclicSolver, determinant
from .stability import fsi_accuracy_sweep, recommend_c
from .validate import ValidationReport, validate_selected
from .wrap import wrap, wrap_flops

__all__ = [
    "AdjacencyOps",
    "BlockPCyclic",
    "ComplexityRow",
    "DeltaReport",
    "FactorPairs",
    "PCyclicSolver",
    "PCyclicWoodbury",
    "RankOneFlip",
    "determinant",
    "diag_flips",
    "FSIResult",
    "Pattern",
    "SelectedInversion",
    "Selection",
    "StructuredQR",
    "bsofi",
    "bsofi_flops",
    "bsofi_qr",
    "cls",
    "cls_flops",
    "cluster_product",
    "complexity_table",
    "equal_time_greens",
    "explicit_form_flops",
    "explicit_full_inverse",
    "explicit_selected_columns",
    "PDIVReport",
    "PDIVResult",
    "fsi",
    "fsi_accuracy_sweep",
    "fsi_distributed",
    "partition_bounds",
    "fsi_flops",
    "fsi_table_flops",
    "full_lu_flops",
    "full_lu_inverse",
    "greens_block",
    "lu_selected_inversion",
    "pattern_count_table",
    "pcyclic_from_general",
    "random_pcyclic",
    "recommend_c",
    "seed_indices",
    "torus_index",
    "ValidationReport",
    "validate_selected",
    "w_matrix",
    "wrap",
    "wrap_blocks",
    "wrap_flops",
    "nearest_seed",
    "torus_distance",
    "z_matrix",
]
