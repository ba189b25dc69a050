"""The FSI driver (Alg. 1): ``CLS -> BSOFI -> WRP``.

:func:`fsi` is the library's headline entry point — it computes a
selected inversion of a block p-cyclic matrix in
``O((2(c-1) + 7b) b N^3)`` to ``O(3 b L N^3)`` flops depending on the
pattern, versus ``O(b L^2 N^3)`` for the explicit form and
``O((NL)^3)`` for a full dense inversion.  (Those are the paper's
counts; the diagonal patterns here compute only the band of the reduced
inverse, which drops BSOFI from ``7 b^2 N^3`` to ``O(b N^3)`` — see
:mod:`repro.core.bsofi`.)

Stages are tagged ``"cls"``, ``"bsofi"`` and ``"wrp"`` on the active
:class:`~repro.perf.tracer.FlopTracer` so per-stage rates (Fig. 8 top)
can be reconstructed from real runs.

:func:`fsi_resilient` wraps :func:`fsi` with the numerical health
guards of :mod:`repro.resilience.guards` and an adaptive fallback
ladder: a guard trip retries with a halved cluster factor
``c -> c/2 -> ... -> 1`` (pure BSOFI; each rung better conditioned,
each slower) and, last, the UDT-stabilized path from
:mod:`repro.dqmc.stabilize`.  The rung that served the result is
recorded on :attr:`FSIResult.rung` and the
``repro_fsi_fallback_total`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..perf.tracer import current_tracers
from ..resilience import chaos as _chaos
from ..resilience import guards as _guards
from ..resilience.guards import GuardConfig, GuardReport, NumericalHealthError
from ..telemetry import runtime as _telemetry
from .adjacency import AdjacencyOps
from .bsofi import SeedSet, bsofi_flops, bsofi_seeds
from .cls import cls, cls_flops
from .patterns import Pattern, SelectedInversion, Selection
from .pcyclic import BlockPCyclic
from .wrap import wrap, wrap_flops

__all__ = ["fsi", "fsi_resilient", "fsi_flops", "FSIResult", "fallback_rungs"]


@dataclass
class FSIResult:
    """Selected inversion plus the intermediates some callers reuse.

    Attributes
    ----------
    selected:
        The requested :class:`SelectedInversion`.
    seed_set:
        BSOFI's output (:class:`~repro.core.bsofi.SeedSet`): the band
        the solve used, and the grid behind :attr:`seeds`.
    selection:
        Pattern + geometry actually used (includes the drawn ``q``).
    ops:
        The adjacency operator with its LU caches, reusable for further
        wrapping on the same matrix.
    rung:
        Which solve path produced the result: ``"direct"`` for the
        requested cluster factor, ``"c=<n>"`` for a fallback rung of
        the ladder, ``"udt"`` for the stabilized last resort (which
        produces an empty seed grid).
    health:
        Guard observations for the serving attempt (``None`` when the
        guards were off).
    """

    selected: SelectedInversion
    seed_set: SeedSet = field(repr=False, compare=False)
    selection: Selection
    ops: AdjacencyOps
    rung: str = "direct"
    health: GuardReport | None = field(default=None, compare=False)

    @property
    def seeds(self) -> np.ndarray:
        """The ``(b, b, N, N)`` inverse of the reduced matrix (every
        block an exact block of ``G``) — DQMC measurement code often
        wants these *in addition* to the wrapped pattern.  For the
        diagonal patterns it is completed on first read."""
        return self.seed_set.grid


def fsi(
    pc: BlockPCyclic,
    c: int,
    pattern: Pattern = Pattern.COLUMNS,
    q: int | None = None,
    rng: np.random.Generator | int | None = None,
    num_threads: int | None = None,
    guards: GuardConfig | None = None,
) -> FSIResult:
    """Fast selected inversion of a block p-cyclic matrix (Alg. 1).

    Parameters
    ----------
    pc:
        The normalized block p-cyclic matrix ``M`` (e.g. a Hubbard
        matrix from :mod:`repro.hubbard`).
    c:
        Cluster size (must divide ``L``).  The paper recommends
        ``c ~ sqrt(L)``; larger ``c`` reduces more but loses precision.
    pattern:
        Which blocks of ``G = M^{-1}`` to produce (S1-S4 or
        FULL_DIAGONAL).
    q:
        Offset in ``{0..c-1}``; drawn uniformly when ``None`` (the
        paper randomises ``q`` per Green's function so measurements
        sample block offsets uniformly).
    rng:
        Source of randomness for ``q``.
    num_threads:
        OpenMP-style team size for the CLS loop and the diagonal
        patterns' WRP seed loop (COLUMNS/ROWS wrap as panel gemms).
    guards:
        When given, run the :mod:`repro.resilience.guards` battery on
        inputs and stage outputs; a trip raises
        :class:`~repro.resilience.guards.NumericalHealthError` (use
        :func:`fsi_resilient` to retry down the fallback ladder
        instead).

    Returns
    -------
    FSIResult
    """
    L = pc.L
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    if q is None:
        q = int(np.random.default_rng(rng).integers(0, c))
    selection = Selection(pattern, L=L, c=c, q=q)
    report = GuardReport() if guards is not None else None

    tracers = current_tracers()
    tracer = tracers[-1] if tracers else None

    def staged(name: str):
        if tracer is not None:
            return tracer.stage(name)
        import contextlib

        return contextlib.nullcontext()

    if guards is not None and guards.screen_input:
        _guards.screen_finite("input", pc.B, report=report)

    with _telemetry.span(
        "fsi", L=L, N=pc.N, c=c, q=q, pattern=pattern.name
    ):
        with _telemetry.span("cls"), staged("cls"):
            reduced = cls(pc, c, q, num_threads=num_threads)
        if _chaos.is_active():
            corrupted = _chaos.corrupt_array("cls.output", reduced.B)
            if corrupted is not None:
                reduced = BlockPCyclic(corrupted)
        if guards is not None:
            if guards.screen_stages:
                _guards.screen_finite("cls", reduced.B, report=report)
            if guards.condition_samples:
                _guards.check_cluster_conditions(reduced.B, guards, report)
        with _telemetry.span("bsofi"), staged("bsofi"):
            seeds = bsofi_seeds(reduced, pattern)
        if guards is not None:
            if guards.screen_stages:
                _guards.screen_finite("bsofi", *seeds.band.arrays,
                                      report=report)
            if guards.residual_samples:
                _guards.check_seed_residual(reduced.B, seeds.band, guards,
                                            report)
        ops = AdjacencyOps(pc)
        with _telemetry.span("wrp", pattern=pattern.name), staged("wrp"):
            selected = wrap(
                pc, seeds, selection, num_threads=num_threads, ops=ops
            )
        if guards is not None and guards.screen_stages:
            picked = _guards.sample_indices(
                len(selected), guards.result_screen_samples
            )
            _guards.screen_finite(
                "result", selected.data[picked], report=report
            )
    return FSIResult(
        selected=selected, seed_set=seeds, selection=selection, ops=ops,
        health=report,
    )


def fallback_rungs(c: int) -> list[int]:
    """The ladder ``c -> c/2 -> ... -> 1`` restricted to divisors of ``c``.

    Each rung is the largest divisor of ``c`` no bigger than half the
    previous rung, ending at 1 (pure BSOFI).  Rungs divide ``c`` (hence
    ``L``), which keeps ``q % rung`` in the same residue class: the
    finer selection is a superset of the requested one for every
    pattern, so fallback results can be filtered down exactly.
    """
    if c < 1:
        raise ValueError(f"c={c} must be positive")
    rungs = [c]
    cur = c
    while cur > 1:
        cur = max(d for d in range(1, cur // 2 + 1) if c % d == 0)
        rungs.append(cur)
    return rungs


def _count_rung(rung: str) -> None:
    _telemetry.registry().counter(
        "repro_fsi_fallback_total",
        "FSI solves by serving rung (direct / fallback c / udt)",
        labels=("rung",),
    ).labels(rung=rung).inc()


def fsi_resilient(
    pc: BlockPCyclic,
    c: int,
    pattern: Pattern = Pattern.COLUMNS,
    q: int | None = None,
    rng: np.random.Generator | int | None = None,
    num_threads: int | None = None,
    guards: GuardConfig | None = None,
) -> FSIResult:
    """:func:`fsi` with guards and the adaptive fallback ladder.

    Runs the guarded solve at the requested cluster factor; on a
    :class:`~repro.resilience.guards.NumericalHealthError` retries down
    the ladder ``c -> c/2 -> ... -> 1`` (smaller clustered products are
    exponentially better conditioned, Sec. II-A) and finally — for the
    diagonal patterns — the UDT-stabilized equal-time path from
    :mod:`repro.dqmc.stabilize`.  Every rung serves the *requested*
    selection: finer-rung results are filtered down to it.

    The serving rung lands on :attr:`FSIResult.rung` and the
    ``repro_fsi_fallback_total{rung=...}`` counter; if every rung
    trips, the last :class:`NumericalHealthError` propagates.
    """
    if guards is None:
        guards = GuardConfig()
    L = pc.L
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    if q is None:
        q = int(np.random.default_rng(rng).integers(0, c))
    requested = Selection(pattern, L=L, c=c, q=q)

    last_err: NumericalHealthError | None = None
    for cur in fallback_rungs(c):
        rung = "direct" if cur == c else f"c={cur}"
        try:
            result = fsi(
                pc, cur, pattern, q=q % cur, num_threads=num_threads,
                guards=guards,
            )
        except NumericalHealthError as err:
            last_err = err
            continue
        if cur != c:
            blocks = result.selected.stack(requested.block_indices())
            # The finer rung's seeds cover its own index set I' ⊃ I;
            # served seeds must be indexed by the *served* selection, so
            # the grid is the finer one's rows/columns of the requested
            # seed set (sliced on first read).
            finer = result.selection.seeds
            pos = [finer.index(s) for s in requested.seeds]
            result = FSIResult(
                selected=SelectedInversion(requested, blocks),
                seed_set=result.seed_set.take(pos),
                selection=requested,
                ops=result.ops,
                health=result.health,
            )
        result.rung = rung
        _count_rung(rung)
        return result

    # Last resort: the UDT-stabilized equal-time path.  It only knows
    # how to build diagonal blocks, so other patterns re-raise.
    assert last_err is not None
    if pattern not in (Pattern.DIAGONAL, Pattern.FULL_DIAGONAL):
        raise last_err
    from ..dqmc.stabilize import stable_equal_time

    report = GuardReport()
    selected = SelectedInversion.empty(requested, (pc.N, pc.N), pc.B.dtype)
    with _telemetry.span("fsi_udt", L=L, N=pc.N, pattern=pattern.name):
        for i, (k, _) in enumerate(requested.block_indices()):
            selected.data[i] = stable_equal_time(pc, k)
    _guards.screen_finite("udt", selected.data, report=report)
    result = FSIResult(
        selected=selected,
        seed_set=SeedSet(grid=np.empty((0, 0, pc.N, pc.N), dtype=pc.B.dtype)),
        selection=requested,
        ops=AdjacencyOps(pc),
        rung="udt",
        health=report,
    )
    _count_rung("udt")
    return result


def fsi_flops(L: int, N: int, c: int, pattern: Pattern) -> float:
    """Closed-form FSI cost for a pattern (the Sec. II-C table).

    ``CLS + BSOFI + WRP``, with the paper's full-inverse BSOFI for every
    pattern (the band solve of the diagonal patterns costs
    :func:`~repro.core.bsofi.bsofi_band_flops` instead):

    * S1 diagonals:      ``[2(c-1) + 7b] b N^3``
    * S2 sub-diagonals:  ``[2c + 7b] b N^3`` (one extra move per seed)
    * S3/S4 cols/rows:   ``2b(c-1)N^3 + 7b^2 N^3 + 3(bL - b^2) N^3``
      (the paper's table keeps only the dominant ``3 b^2 c N^3`` term)
    """
    base = cls_flops(L, N, c) + bsofi_flops(L // c, N)
    return base + wrap_flops(L, N, c, pattern)
