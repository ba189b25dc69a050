"""Delta updates on the request's CLS-reduced chain.

``PCyclicWoodbury(pc, c, q)`` factors only ``cls(pc, c, q)`` and fills
the cluster interiors by the block recurrence.  Covered here:

* on a low-temperature Hubbard grid (up to ``beta = 16, c = 8``) the
  refined reduced update is healthy wherever the unreduced (``c = 1``)
  update is, and matches it to 1e-8 relative;
* where refinement cannot recover the reduced chain
  (``beta = 16, c = 16``) the residual guard trips, and the service
  answers with a fresh solve;
* complex chains (``random_pcyclic``) take the same path;
* the scheduler builds a hinted job's state with the base's ``(c, q)``
  and traces the cold build under ``service.delta.factor``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern
from repro.core.pcyclic import BlockPCyclic, random_pcyclic
from repro.core import smw
from repro.core.smw import PCyclicWoodbury, RankOneFlip, diag_flips
from repro.hubbard.hs_field import HSField
from repro.hubbard.lattice import RectangularLattice
from repro.hubbard.matrix import HubbardModel
from repro.service import GreensJob, GreensService, ModelSpec, ServiceConfig
from repro.telemetry import TraceCollector
from repro.telemetry import runtime as _telemetry

L = 32
GRID = [(1.0, 2.0), (4.0, 4.0), (8.0, 6.0), (16.0, 6.0)]
RANKS = (1, 4, 7)
RESIDUAL_TOL = ServiceConfig().delta_residual_tol
COND_LIMIT = ServiceConfig().delta_cond_limit


def hubbard_case(beta: float, U: float, seed: int):
    """A 3x3-site, L = 32 base field, and 7 distinct flips of it."""
    model = HubbardModel(RectangularLattice(3, 3), L=L, U=U, beta=beta)
    rng = np.random.default_rng(seed)
    field = HSField.random(L, model.N, rng)
    flipped = field.copy()
    for pos in rng.choice(L * model.N, size=max(RANKS), replace=False):
        flipped.flip(*divmod(int(pos), model.N))
    flips = diag_flips(field.h, flipped.h, model.spin_factor(+1) * model.nu)
    return model.build_matrix(field, +1), flips, rng


def rel_diff(a, b) -> float:
    return float(np.linalg.norm(a.data - b.data) / np.linalg.norm(b.data))


@pytest.mark.parametrize("c", [1, 2, 4, 8])
@pytest.mark.parametrize("beta,U", GRID)
def test_reduced_update_matches_full_chain_when_healthy(beta, U, c):
    pc, flips, rng = hubbard_case(beta, U, seed=int(beta * 10 + U))
    q = int(rng.integers(c))
    base = fsi(pc, c, pattern=Pattern.FULL_DIAGONAL, q=q).selected
    full = PCyclicWoodbury(pc)
    reduced = PCyclicWoodbury(pc, c, q)
    for r in RANKS:
        ref, ref_report = full.update_blocks(base, flips[:r])
        got, report = reduced.update_blocks(base, flips[:r])
        assert ref_report.healthy(RESIDUAL_TOL, COND_LIMIT)
        assert report.rank == r
        assert report.healthy(RESIDUAL_TOL, COND_LIMIT), (beta, U, c, q, r)
        assert rel_diff(got, ref) <= 1e-8, (beta, U, c, q, r)
        if c == 1:
            np.testing.assert_array_equal(got.data, ref.data)


def test_unrefined_reduced_solve_needs_refinement(monkeypatch):
    """Without refinement the ``beta = 16, c = 8`` reduced residual
    would trip the service tolerance; the refinement steps remove it."""
    pc, flips, _ = hubbard_case(16.0, 6.0, seed=166)
    base = fsi(pc, 8, pattern=Pattern.FULL_DIAGONAL, q=2).selected
    state = PCyclicWoodbury(pc, 8, 2)
    _, refined = state.update_blocks(base, flips)
    monkeypatch.setattr(smw, "_REFINE_STEPS", 0)
    _, raw = state.update_blocks(base, flips)
    assert raw.solve_residual > RESIDUAL_TOL
    assert refined.solve_residual < 1e-3 * RESIDUAL_TOL


def test_guard_trips_where_refinement_cannot_recover():
    """``beta = 16, c = 16``: two clusters of 16 slices lose the chain
    to rounding, refinement diverges, and every offset trips the guard."""
    pc, flips, _ = hubbard_case(16.0, 6.0, seed=166)
    for q in range(16):
        base = fsi(pc, 16, pattern=Pattern.FULL_DIAGONAL, q=q).selected
        _, report = PCyclicWoodbury(pc, 16, q).update_blocks(base, flips)
        assert not report.healthy(RESIDUAL_TOL, COND_LIMIT), q


@pytest.mark.parametrize("c,q", [(1, 0), (2, 1), (4, 3), (12, 5)])
def test_complex_chain(c, q):
    rng = np.random.default_rng(40 + c)
    pc = random_pcyclic(12, 5, rng, scale=0.5)
    pc = BlockPCyclic(pc.B + 0.3j * rng.standard_normal(pc.B.shape))
    base = fsi(pc, c, pattern=Pattern.FULL_DIAGONAL, q=q).selected
    flips = [RankOneFlip(3, 1, 1.7), RankOneFlip(1, 4, 0.4),
             RankOneFlip(10, 0, 2.5)]
    got, report = PCyclicWoodbury(pc, c, q).update_blocks(base, flips)
    assert report.healthy(1e-12, COND_LIMIT)
    ref, _ = PCyclicWoodbury(pc).update_blocks(base, flips)
    assert rel_diff(got, ref) <= 1e-12
    # Against the dense inverse of the flipped matrix.
    B = pc.B.copy()
    for f in flips:
        B[f.slice_index - 1][:, f.site] *= f.scale
    G = np.linalg.inv(BlockPCyclic(B).to_dense())
    N = pc.N
    for (k, l), blk in got.items():
        np.testing.assert_allclose(
            blk, G[(k - 1) * N : k * N, (l - 1) * N : l * N], atol=1e-10
        )


@pytest.mark.parametrize("c,q", [(2, 0), (4, 3), (8, 5)])
def test_reduced_solves_match_dense(c, q):
    rng = np.random.default_rng(c + q)
    pc = random_pcyclic(16, 4, rng, scale=0.6)
    state = PCyclicWoodbury(pc, c, q)
    rhs = rng.standard_normal((16, 4, 3))
    M = pc.to_dense()
    flat = rhs.reshape(64, 3)
    np.testing.assert_allclose(
        state.solve(rhs).reshape(64, 3), np.linalg.solve(M, flat), atol=1e-12
    )
    np.testing.assert_allclose(
        state.solve_transpose(rhs).reshape(64, 3),
        np.linalg.solve(M.T, flat), atol=1e-12,
    )


def test_bad_clustering_raises():
    pc = random_pcyclic(8, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        PCyclicWoodbury(pc, 3, 0)
    with pytest.raises(ValueError):
        PCyclicWoodbury(pc, 4, 4)


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------

def _hinted(spec: ModelSpec, c: int, q: int, seed: int, flips: int):
    rng = np.random.default_rng(seed)
    field = HSField.random(spec.L, spec.N, rng)
    base = GreensJob.from_field(
        spec, field, c=c, pattern=Pattern.FULL_DIAGONAL, q=q
    )
    flipped = field.copy()
    for pos in rng.choice(spec.L * spec.N, size=flips, replace=False):
        flipped.flip(*divmod(int(pos), spec.N))
    hinted = GreensJob.from_field(
        spec, flipped, c=c, pattern=Pattern.FULL_DIAGONAL, q=q
    ).with_base(base.fingerprint)
    return base, hinted


def _oracle(job: GreensJob) -> dict:
    pc = job.spec.build_model().build_matrix(job.field(), job.spec.sigma)
    return dict(fsi(pc, job.c, pattern=job.pattern, q=job.q).selected.items())


def test_scheduler_state_uses_the_base_clustering_and_is_traced():
    spec = ModelSpec(nx=2, ny=2, L=16, U=4.0, beta=2.0)
    base, hinted = _hinted(spec, c=4, q=3, seed=5, flips=2)
    collector = TraceCollector()
    _telemetry.configure(sample_rate=1.0, collector=collector)
    try:
        with GreensService(ServiceConfig(workers=1)) as svc:
            svc.compute(base, timeout=60)
            first = svc.compute(hinted, timeout=60)
            state = svc._delta_states[base.fingerprint]
    finally:
        _telemetry.reset()
    assert first.rung == "delta(2)"
    assert (state.c, state.q) == (4, 3)
    ref = _oracle(hinted)
    for kl, blk in first.blocks.items():
        scale = float(np.linalg.norm(ref[kl])) or 1.0
        assert float(np.linalg.norm(blk - ref[kl])) / scale < 1e-8
    spans = collector.snapshot()
    deltas = [s for s in spans if s["name"] == "service.delta"]
    factors = [s for s in spans if s["name"] == "service.delta.factor"]
    assert [s["attributes"]["c"] for s in deltas] == [4]
    assert [s["attributes"]["cold"] for s in deltas] == [True]
    assert len(factors) == 1
    assert factors[0]["parent_id"] == deltas[0]["span_id"]
    assert factors[0]["attributes"]["q"] == 3


def test_scheduler_warm_state_is_reused_not_rebuilt():
    spec = ModelSpec(nx=2, ny=2, L=16, U=4.0, beta=2.0)
    base, first = _hinted(spec, c=4, q=1, seed=6, flips=1)
    _, second = _hinted(spec, c=4, q=1, seed=6, flips=3)
    collector = TraceCollector()
    _telemetry.configure(sample_rate=1.0, collector=collector)
    try:
        with GreensService(ServiceConfig(workers=1)) as svc:
            svc.compute(base, timeout=60)
            results = [svc.compute(j, timeout=60) for j in (first, second)]
    finally:
        _telemetry.reset()
    assert [r.rung for r in results] == ["delta(1)", "delta(3)"]
    deltas = [s for s in collector.snapshot() if s["name"] == "service.delta"]
    assert [s["attributes"]["cold"] for s in deltas] == [True, False]


def test_service_falls_back_where_refinement_cannot_recover():
    """``beta = 16, c = 16``: the reduced update's guard trips and the
    request is answered by a fresh solve, counted as ``residual``."""
    spec = ModelSpec(nx=3, ny=3, L=L, U=6.0, beta=16.0)
    base, hinted = _hinted(spec, c=16, q=2, seed=0, flips=7)
    with GreensService(ServiceConfig(workers=1)) as svc:
        svc.compute(base, timeout=120)
        result = svc.compute(hinted, timeout=120)
        reasons = svc.stats()["delta"]["fallbacks"]
    assert result.rung == "direct"
    assert reasons == {"residual": 1}
