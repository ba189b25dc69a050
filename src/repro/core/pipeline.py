"""The guarded stage pipeline of Alg. 1: ``CLS -> BSOFI -> WRP``.

:func:`run_stages` is the one place the stages and the guards between
them are sequenced, for :func:`~repro.core.fsi.fsi` and for each
:class:`~repro.spectral.resolvent.ResolventFactor` shift (which enters
with its scaled chain, its reduced chain and the ``1/(z-1)`` scale)::

    screen input -> CLS -> screen, cluster conditions
                 -> BSOFI -> screen band, seed residual
                 -> WRP -> (scale) -> sampled result screen

A shift enters after CLS with its factor's unshifted reduced chain and
the scalar ``t`` that shifts it: the factor screened the input and the
reduced chain and checked the cluster conditions once.  BSOFI inverts
the shifted chain ``t R`` without forming it, and the band screen and
seed residual see the shifted chain's inverse.

Each stage is a :func:`repro.telemetry.stage` (span + flop accounting).
"""

from __future__ import annotations

import numpy as np

from ..resilience import chaos as _chaos
from ..resilience import guards as _guards
from ..resilience.guards import GuardConfig, GuardReport
from ..telemetry import runtime as _telemetry
from .bsofi import SeedSet, bsofi_seeds
from .cls import cls
from .patterns import SelectedInversion, Selection
from .pcyclic import BlockPCyclic
from .wrap import wrap

__all__ = ["cluster_offset", "run_stages"]


def cluster_offset(
    L: int, c: int, q: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> int:
    """Check that ``c`` divides ``L``; return ``q``, drawn uniformly from
    ``{0..c-1}`` by ``rng`` when ``None``."""
    if c < 1 or L % c != 0:
        raise ValueError(f"c={c} must be a positive divisor of L={L}")
    if q is None:
        q = int(np.random.default_rng(rng).integers(0, c))
    return q


def run_stages(
    pc: BlockPCyclic,
    selection: Selection,
    guards: GuardConfig | None = None,
    num_threads: int | None = None,
    reduced: BlockPCyclic | None = None,
    t: complex = 1.0,
    scale: complex | None = None,
) -> tuple[SelectedInversion, SeedSet, GuardReport | None]:
    """Run the guarded stages; return ``(selected, seeds, report)``.

    WRP reads ``pc``'s blocks and inverses.  ``reduced`` (the caller's
    reduced chain, which BSOFI inverts scaled by ``t``) skips the input
    screen, CLS, the reduced chain's screen and the cluster-condition
    check, which the caller runs once where it clustered; then ``pc``
    only needs what WRP reads.  ``scale`` multiplies the wrapped blocks
    before the result screen.  A guard trip raises
    ``NumericalHealthError``.
    """
    report = GuardReport() if guards is not None else None
    if reduced is None:
        if guards is not None and guards.screen_input:
            _guards.screen_finite("input", pc.B, report=report)
        with _telemetry.stage("cls"):
            reduced = cls(pc, selection.c, selection.q, num_threads=num_threads)
        if _chaos.is_active():
            corrupted = _chaos.corrupt_array("cls.output", reduced.B)
            if corrupted is not None:
                reduced = BlockPCyclic(corrupted)
        if guards is not None:
            if guards.screen_stages:
                _guards.screen_finite("cls", reduced.B, report=report)
            if guards.condition_samples:
                _guards.check_cluster_conditions(reduced.B, guards, report)
    with _telemetry.stage("bsofi"):
        seeds = bsofi_seeds(reduced, selection.pattern, t)
    if guards is not None:
        if guards.screen_stages:
            _guards.screen_finite("bsofi", *seeds.band.arrays, report=report)
        if guards.residual_samples:
            _guards.check_seed_residual(
                reduced.B, seeds.band, guards, report, t=t
            )
    with _telemetry.stage("wrp", pattern=selection.pattern.name):
        selected = wrap(pc, seeds, selection, num_threads=num_threads)
    if scale is not None:
        # The wrap output is a fresh buffer, so the scale is safe in place.
        selected.data *= scale
    if guards is not None and guards.screen_stages:
        picked = _guards.sample_indices(
            len(selected), guards.result_screen_samples
        )
        _guards.screen_finite("result", selected.data[picked], report=report)
    return selected, seeds, report
