"""Trace and diagonal estimation for ``G = M^{-1}``.

Sec. I of the paper notes "a close relation between the FSI algorithm
and the probing and sketching algorithms for matrix computations, such
as the probing algorithm for computing the diagonal of the inverse ...
and the trace of the inverse" (refs. [13]-[16]).  This module makes
that relation concrete by implementing both sides:

* **exact** — FSI with the ``FULL_DIAGONAL`` pattern gives every
  diagonal block of ``G``, hence the exact trace/diagonal, in
  ``O((2(c-1) + 7b) b N^3)`` flops;
* **stochastic** — Hutchinson's estimator ``tr(G) ~ mean_s z_s^T G z_s``
  with Rademacher probes, each probe one structured *solve*
  (:class:`repro.core.solve.PCyclicSolver`, ``O(L N^2)`` per probe
  after an ``O(L N^3)`` factorisation), with an error decaying like
  ``1/sqrt(n_probes)``.

The crossover (few digits -> stochastic wins; many digits or the full
diagonal -> selected inversion wins) is quantified in
``benchmarks/exp_a3_trace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fsi import fsi
from ..core.patterns import Pattern
from ..core.pcyclic import BlockPCyclic
from ..core.solve import PCyclicSolver

__all__ = ["exact_trace", "exact_diagonal", "hutchinson_trace", "HutchinsonResult"]


def exact_diagonal(pc: BlockPCyclic, c: int | None = None) -> np.ndarray:
    """The exact diagonal of ``G = M^{-1}`` via FSI (length ``N*L``)."""
    from ..core.stability import recommend_c

    if c is None:
        c = recommend_c(pc.L)
    res = fsi(pc, c, pattern=Pattern.FULL_DIAGONAL, q=0)
    return np.concatenate(
        [np.diag(res.selected[(l, l)]) for l in range(1, pc.L + 1)]
    )


def exact_trace(pc: BlockPCyclic, c: int | None = None) -> float:
    """``tr(G)`` exactly, via the selected diagonal."""
    return float(exact_diagonal(pc, c=c).sum())


@dataclass(frozen=True)
class HutchinsonResult:
    """Stochastic trace estimate with its running statistics."""

    estimate: float
    stderr: float
    n_probes: int
    samples: np.ndarray

    def error_vs(self, exact: float) -> float:
        return abs(self.estimate - exact)


def hutchinson_trace(
    pc: BlockPCyclic,
    n_probes: int = 32,
    rng: np.random.Generator | int | None = None,
    solver: PCyclicSolver | None = None,
) -> HutchinsonResult:
    """Hutchinson's estimator of ``tr(M^{-1})`` with Rademacher probes.

    Each probe costs one structured solve; the factorisation is shared
    (pass ``solver`` to amortise across calls).
    """
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    gen = np.random.default_rng(rng)
    if solver is None:
        solver = PCyclicSolver(pc)
    n = pc.shape[0]
    # Batch the probes into one multi-RHS solve.
    Z = gen.choice(np.array([-1.0, 1.0]), size=(n, n_probes))
    X = solver.solve(Z)
    samples = np.einsum("ij,ij->j", Z, X)
    estimate = float(samples.mean())
    stderr = (
        float(samples.std(ddof=1) / np.sqrt(n_probes)) if n_probes > 1 else float("inf")
    )
    return HutchinsonResult(
        estimate=estimate, stderr=stderr, n_probes=n_probes, samples=samples
    )
