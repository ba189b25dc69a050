"""Shifted p-cyclic resolvent solves: ``G(z) = (zI - M)^{-1}``.

The frequency-domain Green's function evaluates the resolvent of the
block p-cyclic DQMC matrix ``M`` at complex shifts ``z = omega + i eta``
on a grid.  The whole point of this module is that the shifted operator
is *still* block p-cyclic — with every block rescaled by one scalar —
so one factorisation of the unshifted matrix serves the entire grid.

Write the shifted operator and normalize its diagonal (``M`` is in
normal form: unit diagonal, sub-diagonal ``-B_i``, corner ``+B_1``)::

    A(z) = zI - M          # diagonal (z-1)I, sub-diagonal +B_i, corner -B_1
    M~(z) = A(z) / (z-1)   # unit diagonal, blocks  s(z) * B_i

with the single scalar ``s(z) = -1/(z-1)`` applying uniformly to every
block — sub-diagonal, corner *and* the degenerate ``L == 1`` case — so

    M~(z) = BlockPCyclic(s(z) * B)      and
    G(z) = A(z)^{-1} = M~(z)^{-1} / (z - 1).

Everything omega-independent is then computed **once** per matrix
(:class:`ResolventFactor`):

* the CLS clustered products ``R_i`` of the *unshifted* chain — the
  shifted reduced chain is exactly ``t R_i`` with ``t = s(z)^c``
  (scalars commute through the product), so the ``2b(c-1)N^3`` CLS
  stage never re-runs, and the shifted chain is never formed: BSOFI
  takes ``(R, t)`` and factors the unitary phase similarity of ``t R``
  (:mod:`repro.core.bsofi`), whose panels are real for a real ``M`` —
  only the last block column of ``R``, ``Q_f`` and the last diagonal
  block are complex;
* the block inverses used by the wrapping moves — ``(s B_i)^{-1} =
  B_i^{-1} / s``, so one ``B_i^{-1}`` per block serves every shift
  (:class:`_ScaledChain`; exact ones, a Hubbard matrix's, cost
  ``O(N^2)`` and are formed on use).

Per shift only the BSOFI inversion of the tiny reduced chain (plus
pattern wrapping) remains — run by the same guarded
:func:`~repro.core.pipeline.run_stages` as :func:`~repro.core.fsi.fsi`,
with the same ``"bsofi"``/``"wrp"`` stages — which is what makes dense
omega-grids cheap: see ``benchmarks/bench_spectral.py`` for the gate
that keeps the factor-once sweep >= 3x the naive per-omega pipeline.

Small ``eta`` with ``omega`` near an eigenvalue of ``M`` is exactly the
ill-conditioned regime the resilience ladder exists for: with guards
enabled, a tripped fast path falls back to a full
:func:`~repro.core.fsi.fsi_resilient` solve of the shifted chain for
that shift only, and the serving rung is recorded per shift on the
``repro_spectral_shifts_total`` counter.  Per shift the guards screen
the BSOFI band and sample the seed residual against the shifted chain;
the checks of the reduced chain itself run once per factor: its screen
(an overflow of ``t R`` shows in the band) and the cluster-condition
check (scaling leaves condition numbers unchanged, so a trip sends
every shift to the ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.adjacency import AdjacencyOps
from ..core.bsofi import bsofi_flops
from ..core.cls import cls_flops
from ..core.fsi import fsi_resilient
from ..core.patterns import Pattern, SelectedInversion, Selection
from ..core.pcyclic import BlockPCyclic
from ..core.pipeline import cluster_offset, cls_stage, run_stages
from ..core.wrap import wrap_flops
from ..resilience import guards as _guards
from ..resilience.guards import GuardConfig, GuardReport, NumericalHealthError
from ..telemetry import runtime as _telemetry
from .grid import OmegaGrid

__all__ = [
    "ResolventFactor",
    "SpectralResult",
    "shifted_pcyclic",
    "shift_scale",
    "spectral_sweep_flops",
]


def shift_scale(z: complex) -> tuple[complex, complex]:
    """The ``(d, s)`` coefficients of the shift ``z``: ``d = z - 1``,
    ``s = -1/d``, so ``zI - M = d * BlockPCyclic(s * B)``.

    Any grid with ``eta > 0`` keeps ``z`` off the real axis, so ``d``
    can only vanish for a real shift ``z == 1``.
    """
    d = complex(z) - 1.0
    if d == 0.0:
        raise ValueError(
            "shift z=1 has a singular normalization (z-1)I; spectral "
            "grids must keep eta > 0"
        )
    return d, -1.0 / d


def shifted_pcyclic(pc: BlockPCyclic, z: complex) -> tuple[BlockPCyclic, complex]:
    """Materialise ``(M~(z), d)`` with ``(zI - M)^{-1} = M~(z)^{-1} / d``.

    This is the *naive* per-shift entry point (used by the fallback
    ladder and the benchmark baseline); :class:`ResolventFactor` gets
    the same operator implicitly without rebuilding anything per shift.
    """
    d, s = shift_scale(z)
    return BlockPCyclic(np.ascontiguousarray(pc.B * s)), d


class _ScaledChain:
    """``M~(z) = BlockPCyclic(s * B)`` as WRP reads it, without a copy.

    ``block(i) = s B_i`` and ``inverse(i) = B_i^{-1} / s``: one ``N^2``
    scalar multiply per block the pattern touches, never the full
    ``L``-block shifted chain.  The unshifted inverses come from
    ``ops``, which forms each one once for every shift.
    """

    __slots__ = ("_ops", "_s", "L", "N", "dtype")

    def __init__(self, ops: AdjacencyOps, s: complex):
        self._ops = ops
        self._s = s
        self.L = ops.pc.L
        self.N = ops.pc.N
        self.dtype = np.result_type(ops.pc.dtype, np.complex128)

    def block(self, i: int) -> np.ndarray:
        return self._ops.pc.block(i) * self._s

    def inverse(self, i: int) -> np.ndarray:
        return self._ops.inverse(i) * (1.0 / self._s)


@dataclass
class SpectralResult:
    """Selected resolvent blocks over a whole :class:`OmegaGrid`.

    ``blocks[(k, l)]`` stacks the selected block ``G(z_j)_{kl}`` over
    the grid: shape ``(n_omega, N, N)``, complex — one
    :class:`~repro.core.patterns.SelectedInversion` buffer of shape
    ``(n_blocks, n_omega, N, N)``.  ``rungs[j]`` records
    the solve path that served shift ``j`` (``"factored"`` for the
    shared-factorisation fast path, else the ladder rung name).
    """

    grid: OmegaGrid
    selection: Selection
    blocks: SelectedInversion
    rungs: list[str] = field(default_factory=list)

    @property
    def n_omega(self) -> int:
        return self.grid.n

    def block(self, k: int, l: int) -> np.ndarray:
        return self.blocks[(k, l)]


def _count_shift(rung: str) -> None:
    _telemetry.registry().counter(
        "repro_spectral_shifts_total",
        "Resolvent shifts solved, by serving rung",
        labels=("rung",),
    ).labels(rung=rung).inc()


class ResolventFactor:
    """One factorisation of ``M``, reusable across an entire omega-grid.

    Parameters
    ----------
    pc:
        The unshifted block p-cyclic matrix (real or complex).
    c:
        Cluster size for the CLS reduction (must divide ``L``).
    pattern:
        Which blocks of ``G(z)`` each shift produces.  Defaults to
        ``DIAGONAL`` — the cheapest pattern and the one spectral
        functions consume.
    q:
        Cluster offset in ``{0..c-1}``.  Deterministic (no drawn
        default): spectral results are content-addressed by the
        service, so the same request must do the same work.
    guards:
        Optional :class:`~repro.resilience.guards.GuardConfig`.  When
        set, the factor screens the reduced chain and estimates its
        condition once, and every shift runs the band and result
        screens and the seed identity residual; a trip retries that
        shift (a trip on the reduced chain: every shift) through
        :func:`~repro.core.fsi.fsi_resilient`'s fallback ladder.  A
        non-finite input still raises.
    num_threads:
        Accepted and ignored: the factor and every shift run on the
        calling thread, where a thread team measured no faster.  Kept
        so that existing callers, which pass a team size, run unchanged.
    """

    def __init__(
        self,
        pc: BlockPCyclic,
        c: int,
        pattern: Pattern = Pattern.DIAGONAL,
        q: int = 0,
        guards: GuardConfig | None = None,
        num_threads: int | None = None,
    ):
        cluster_offset(pc.L, c, q)
        if not 0 <= q < c:
            raise ValueError(f"q={q} must be in [0, {c})")
        self.pc = pc
        self.c = c
        self.q = q
        self.pattern = pattern
        self.guards = guards
        self.selection = Selection(pattern, L=pc.L, c=c, q=q)
        report = GuardReport() if guards is not None else None
        with _telemetry.span(
            "spectral.factor", L=pc.L, N=pc.N, c=c, pattern=pattern.name
        ):
            if guards is not None and guards.screen_input:
                _guards.screen_finite("input", pc.B, report=report)
            # CLS of the *unshifted* chain: scalars commute through the
            # cluster products, so the shifted reduced chain is just
            # s(z)^c times these blocks — computed once, in the chain's
            # own dtype; BSOFI applies the scalar.
            reduced = cls_stage(pc, c, q, guards)
            # s(z)^c R_i has the condition number of R_i (and is finite
            # where R_i is), so one screen and one estimate on the
            # unshifted chain give every shift's verdict; a trip sends
            # every shift straight to the fallback ladder, whose finer
            # rungs may keep the cluster products in range.
            self._conditioned = True
            if guards is not None:
                try:
                    if guards.screen_stages:
                        _guards.screen_finite("cls", reduced.B, report=report)
                    if guards.condition_samples:
                        _guards.check_cluster_conditions(
                            reduced.B, guards, report
                        )
                except NumericalHealthError:
                    self._conditioned = False
            self._reduced = reduced
            # Block inverses for every shift: a formed B_i^{-1} is kept
            # from its first use, an exact one is O(N^2) on each use.
            self._ops = AdjacencyOps(pc)

    # -- one shift -----------------------------------------------------
    def _solve_factored(self, z: complex) -> SelectedInversion:
        d, s = shift_scale(z)
        # M~(z) reduces to s^c R; G(z) = M~(z)^{-1} / (z-1): the
        # pipeline scales the wrapped blocks by 1/d before its result
        # screen.
        selected, _, _ = run_stages(
            _ScaledChain(self._ops, s), self.selection,
            guards=self.guards, reduced=self._reduced, t=s**self.c, scale=1.0 / d,
        )
        return selected

    def solve_shift(self, z: complex) -> tuple[SelectedInversion, str]:
        """Selected blocks of ``G(z)`` plus the serving rung.

        The rung is ``"factored"`` on the shared-factorisation fast
        path; with guards enabled, a numerical-health trip (a shift too
        close to an eigenvalue for the requested cluster factor) falls
        back to the full resilience ladder on the shifted chain and
        returns that ladder's rung instead.
        """
        if self.guards is None:
            return self._solve_factored(z), "factored"
        if self._conditioned:
            try:
                return self._solve_factored(z), "factored"
            except (NumericalHealthError, OverflowError):
                # OverflowError: ``s(z)^c`` left double range (a shift
                # pathologically close to z=1) before any screen could
                # see an array — same illness, same ladder.
                pass
        pc_z, d = shifted_pcyclic(self.pc, z)
        result = fsi_resilient(
            pc_z, self.c, self.pattern, q=self.q, guards=self.guards
        )
        result.selected.data *= 1.0 / d
        return result.selected, result.rung

    # -- the grid ------------------------------------------------------
    def sweep(
        self, grid: OmegaGrid, num_threads: int | None = None
    ) -> SpectralResult:
        """Solve every shift of ``grid``, one after another.

        Shifts are data-independent given the shared factorisation, but
        they run on the calling thread: at paper scale on a 2-core host
        (1 BLAS thread) an 8-shift c = 32 sweep on a 2-thread team took
        45.4 ms against 44.3 ms on one thread, in 6 alternating rounds.
        ``num_threads`` is accepted and ignored, so that existing
        callers, which pass a team size, run unchanged.
        """
        zs = grid.z
        n = grid.n
        N = self.pc.N
        blocks = SelectedInversion.empty(
            self.selection, (n, N, N), np.complex128
        )
        rungs = [""] * n
        with _telemetry.span(
            "spectral.sweep", n_omega=n, pattern=self.pattern.name,
            L=self.pc.L, N=self.pc.N, c=self.c,
        ):
            for j in range(n):
                selected, rung = self.solve_shift(zs[j])
                blocks.data[:, j] = selected.data
                rungs[j] = rung
                _count_shift(rung)
        return SpectralResult(
            grid=grid, selection=self.selection, blocks=blocks, rungs=rungs
        )


def spectral_sweep_flops(
    L: int, N: int, c: int, pattern: Pattern, n_omega: int
) -> float:
    """Closed-form factor-once sweep cost.

    One CLS (``2b(c-1)N^3``) plus ``n_omega`` per-shift solves (BSOFI of
    the ``b``-block reduced chain + pattern wrapping).  Compare with the
    naive ``n_omega * fsi_flops(...)`` to see why the sweep amortises:
    the whole CLS term drops out of the per-shift cost.
    """
    b = L // c
    per_shift = bsofi_flops(b, N) + wrap_flops(L, N, c, pattern)
    return cls_flops(L, N, c) + n_omega * per_shift
