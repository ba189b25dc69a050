"""The guarded stage pipeline: one guard sequence on every CLS/BSOFI/WRP path.

``fsi``, ``fsi_resilient`` and each ``ResolventFactor`` shift run their
stages through :func:`repro.core.pipeline.run_stages`.  The guard
counts below are the ones each path ran before the sequence was shared,
pinned so that no path silently gains or loses a check; the spectral
worker job must report the same per-stage flops as an equal-time one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core.cls import cls
from repro.core.fsi import fsi, fsi_resilient
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic
from repro.core.pipeline import cluster_offset
from repro.hubbard.hs_field import HSField
from repro.resilience.guards import GuardConfig, estimate_condition
from repro.service import GreensJob, ModelSpec, execute_job
from repro.spectral import OmegaGrid, ResolventFactor, SpectralSpec, shifted_pcyclic


@pytest.fixture(autouse=True)
def _fresh_registry():
    telemetry.reset()
    yield
    telemetry.reset()


def toy_pcyclic(L: int = 12, N: int = 6, seed: int = 3) -> BlockPCyclic:
    rng = np.random.default_rng(seed)
    return BlockPCyclic(np.eye(N)[None] + 0.3 * rng.standard_normal((L, N, N)))


def guard_checks() -> dict[str, float]:
    fam = telemetry.registry().get("repro_guard_checks_total")
    return {key[0]: child.value for key, child in fam.samples()}


class TestGuardParity:
    @pytest.mark.parametrize("pattern", [Pattern.DIAGONAL, Pattern.COLUMNS])
    def test_guarded_fsi(self, pattern):
        fsi(toy_pcyclic(), 4, pattern, q=1, guards=GuardConfig())
        # input, cls, bsofi and result screens; one condition, one residual
        assert guard_checks() == {"finite": 4, "condition": 1, "residual": 1}

    def test_resilient_served_by_fallback_rung(self):
        pc = toy_pcyclic()
        conds = [
            max(estimate_condition(b) for b in cls(pc, c, q).B)
            for c, q in ((4, 3), (2, 1))
        ]
        guards = GuardConfig(
            condition_limit=float(np.sqrt(conds[0] * conds[1])),
            condition_samples=64,
        )
        res = fsi_resilient(pc, 4, Pattern.COLUMNS, q=3, guards=guards)
        assert res.rung == "c=2"
        # direct: input, cls, condition (trips); c=2: the full battery
        assert guard_checks() == {"finite": 6, "condition": 2, "residual": 1}

    def test_guarded_resolvent_shift(self):
        factor = ResolventFactor(
            toy_pcyclic(), 4, Pattern.DIAGONAL, q=1, guards=GuardConfig()
        )
        # one-time input + cls screens and the cluster-condition check
        assert guard_checks() == {"finite": 2, "condition": 1}
        telemetry.reset()
        _, rung = factor.solve_shift(complex(-1.0, 0.1))
        assert rung == "factored"
        # bsofi and result screens; one residual (the reduced chain was
        # screened once, by the factor)
        assert guard_checks() == {"finite": 2, "residual": 1}

    def test_ill_conditioned_factor_sends_every_shift_to_the_ladder(self):
        pc = toy_pcyclic()
        cond = max(estimate_condition(b) for b in cls(pc, 4, 1).B)
        guards = GuardConfig(condition_limit=cond / 2, condition_samples=64)
        factor = ResolventFactor(pc, 4, Pattern.DIAGONAL, q=1, guards=guards)
        assert guard_checks()["condition"] == 1
        grid = OmegaGrid.linear(-2.0, 2.0, 4, eta=0.3)
        telemetry.reset()
        swept = factor.sweep(grid, num_threads=1)
        assert "factored" not in swept.rungs
        ladder_checks = guard_checks()["condition"]
        dense = pc.to_dense()
        N = pc.N
        for j, z in enumerate(grid.z):
            ref = np.linalg.inv(z * np.eye(dense.shape[0]) - dense)
            for (k, l), blk in swept.blocks.items():
                np.testing.assert_allclose(
                    blk[j], ref[(k - 1) * N:k * N, (l - 1) * N:l * N],
                    atol=1e-10,
                )
        # The sweep ran no condition check beyond the ladder's own.
        telemetry.reset()
        for z in grid.z:
            fsi_resilient(shifted_pcyclic(pc, z)[0], 4, Pattern.DIAGONAL,
                          q=1, guards=guards)
        assert guard_checks()["condition"] == ladder_checks


class TestClusterOffset:
    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="positive divisor"):
            cluster_offset(12, 5)
        with pytest.raises(ValueError, match="positive divisor"):
            fsi(toy_pcyclic(), 0)

    def test_draws_q_from_rng(self):
        draws = {cluster_offset(12, 4, rng=seed) for seed in range(32)}
        assert draws == {0, 1, 2, 3}
        assert cluster_offset(12, 4, q=2, rng=0) == 2


def test_spectral_job_reports_stage_flops():
    # N = 6 makes every counted flop an integer (N^3 is a multiple of 3),
    # so the total is exact whatever order the stages are summed in.
    spec = ModelSpec(nx=2, ny=3, L=8, U=2.0, beta=1.0)
    field = HSField.random(8, 6, np.random.default_rng(5))
    grid = OmegaGrid.linear(-2.0, 0.0, 4, eta=0.1)
    job = GreensJob.from_field(
        spec, field, c=4, pattern=Pattern.DIAGONAL, q=1,
        spectral=SpectralSpec.from_grid(grid),
    )
    result = execute_job(job, num_threads=2)
    assert result.rung == "spectral(4)"
    assert {"cls", "bsofi", "wrp"} <= set(result.stage_flops)
    assert sum(result.stage_flops.values()) == result.flops
    assert result.flops == SPECTRAL_JOB_FLOPS


#: The traced total of the job above.  A real-by-complex product of a
#: shift's BSOFI counts as the real gemm that runs on the complex
#: operand's float view, ``4 m k n``.
SPECTRAL_JOB_FLOPS = 43776.0
