"""The incremental serving path: scheduler fast path + cache + metrics.

Covers the delta-serving acceptance scenarios:

* a single-flip request with a ``--base`` hint is served by the delta
  path (``rung == "delta(1)"``) and matches the direct FSI solve to
  1e-8;
* delta results are cached and chain as bases for further deltas;
* every fallback condition routes to the full solve with the right
  counter: base evicted, incompatible base, rank budget exceeded,
  depth budget exhausted, residual guard trip;
* the fingerprint version is part of the canonical encoding (a bump
  invalidates all stale fingerprints at once) and pre-v2 results
  (no stored field) never serve as bases;
* satellite fixes: ``LRUResultCache.clear()`` resets counters,
  disabled-cache ``put`` counts as a drop, ``peek`` is stat-neutral,
  and ``ServiceMetrics`` uptime is monotonic.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.fsi import fsi
from repro.core.patterns import Pattern, Selection
from repro.hubbard.hs_field import HSField
from repro.service import (
    GreensJob,
    GreensService,
    JobResult,
    LRUResultCache,
    ModelSpec,
    ServiceConfig,
    ServiceMetrics,
)

SPEC = ModelSpec(nx=2, ny=2, L=8, t=1.0, U=2.0, beta=1.0)
PATTERN = Pattern.FULL_DIAGONAL


def make_field(seed: int) -> HSField:
    return HSField.random(SPEC.L, SPEC.N, np.random.default_rng(seed))


def make_job(field: HSField, q: int = 0) -> GreensJob:
    return GreensJob.from_field(SPEC, field, c=4, pattern=PATTERN, q=q)


def flipped(field: HSField, *positions: tuple[int, int]) -> HSField:
    out = field.copy()
    for sl, site in positions:
        out.flip(sl, site)
    return out


def oracle_blocks(job: GreensJob) -> dict:
    pc = job.spec.build_model().build_matrix(job.field(), job.spec.sigma)
    return dict(fsi(pc, job.c, pattern=job.pattern, q=job.q).selected.items())


def service(**overrides) -> GreensService:
    kwargs = dict(workers=1)
    kwargs.update(overrides)
    return GreensService(ServiceConfig(**kwargs))


def delta_fallback_reasons(svc: GreensService) -> dict[str, float]:
    return svc.stats()["delta"]["fallbacks"]


# ----------------------------------------------------------------------
# the fast path
# ----------------------------------------------------------------------

class TestDeltaServing:
    def test_single_flip_served_by_delta(self):
        field = make_field(1)
        base_job = make_job(field)
        delta_job = make_job(flipped(field, (3, 1))).with_base(
            base_job.fingerprint
        )
        with service() as svc:
            svc.compute(base_job, timeout=60)
            ticket = svc.submit(delta_job)
            result = ticket.result(timeout=60)
        assert ticket.delta_hit
        assert not ticket.cache_hit
        assert result.rung == "delta(1)"
        assert result.delta_depth == 1
        assert result.fingerprint == delta_job.fingerprint
        ref = oracle_blocks(delta_job)
        assert sorted(result.blocks) == sorted(ref)
        for kl, blk in result.blocks.items():
            scale = float(np.linalg.norm(ref[kl])) or 1.0
            assert float(np.linalg.norm(blk - ref[kl])) / scale < 1e-8

    def test_delta_result_is_cached_and_chains_as_base(self):
        field = make_field(2)
        base_job = make_job(field)
        j1 = make_job(flipped(field, (0, 2))).with_base(base_job.fingerprint)
        j2 = make_job(flipped(field, (0, 2), (5, 3))).with_base(
            j1.fingerprint
        )
        with service() as svc:
            svc.compute(base_job, timeout=60)
            r1 = svc.compute(j1, timeout=60)
            again = svc.submit(j1)
            assert again.result(timeout=60).fingerprint == r1.fingerprint
            assert again.cache_hit
            r2 = svc.compute(j2, timeout=60)
            assert svc.stats()["delta"]["hits"] == 2
        assert r1.rung == "delta(1)"
        assert r2.rung == "delta(1)"  # diff vs j1's field is one flip
        assert r2.delta_depth == 2
        ref = oracle_blocks(j2)
        for kl, blk in r2.blocks.items():
            np.testing.assert_allclose(blk, ref[kl], atol=1e-8)

    def test_hint_does_not_change_identity(self):
        field = make_field(3)
        job = make_job(field)
        hinted = job.with_base("f" * 64)
        assert hinted.fingerprint == job.fingerprint
        assert hinted == job

    def test_rank_counts_field_diff_not_hint_order(self):
        """A 3-flip diff under a rank budget of 16 serves delta(3)."""
        field = make_field(4)
        base_job = make_job(field)
        delta_job = make_job(
            flipped(field, (0, 0), (2, 3), (7, 1))
        ).with_base(base_job.fingerprint)
        with service() as svc:
            svc.compute(base_job, timeout=60)
            result = svc.compute(delta_job, timeout=60)
        assert result.rung == "delta(3)"
        ref = oracle_blocks(delta_job)
        for kl, blk in result.blocks.items():
            np.testing.assert_allclose(blk, ref[kl], atol=1e-8)


# ----------------------------------------------------------------------
# fallback conditions
# ----------------------------------------------------------------------

class TestDeltaFallbacks:
    def test_base_evicted_falls_back_to_full_solve(self):
        field = make_field(5)
        job = make_job(field).with_base("0" * 64)
        with service() as svc:
            ticket = svc.submit(job)
            result = ticket.result(timeout=60)
            stats = svc.stats()["delta"]
            reasons = delta_fallback_reasons(svc)
        assert not ticket.delta_hit
        assert result.rung == "direct"
        assert stats["misses"] == 1
        assert reasons.get("base-evicted") == 1
        np.testing.assert_allclose(
            result.blocks[(1, 1)], oracle_blocks(job)[(1, 1)], atol=1e-8
        )

    def test_rank_budget_exceeded_falls_back(self):
        field = make_field(6)
        base_job = make_job(field)
        delta_job = make_job(
            flipped(field, (0, 0), (1, 1), (2, 2))
        ).with_base(base_job.fingerprint)
        with service(delta_rank_budget=2) as svc:
            svc.compute(base_job, timeout=60)
            result = svc.compute(delta_job, timeout=60)
            reasons = delta_fallback_reasons(svc)
        assert result.rung == "direct"
        assert reasons.get("rank") == 1

    def test_depth_budget_forces_restabilising_solve(self):
        field = make_field(7)
        base_job = make_job(field)
        j1 = make_job(flipped(field, (1, 0))).with_base(base_job.fingerprint)
        j2 = make_job(flipped(field, (1, 0), (6, 2))).with_base(
            j1.fingerprint
        )
        with service(delta_max_depth=1) as svc:
            svc.compute(base_job, timeout=60)
            r1 = svc.compute(j1, timeout=60)
            r2 = svc.compute(j2, timeout=60)
            reasons = delta_fallback_reasons(svc)
        assert r1.rung == "delta(1)" and r1.delta_depth == 1
        assert r2.rung == "direct" and r2.delta_depth == 0
        assert reasons.get("depth") == 1

    def test_residual_guard_trips_to_full_solve(self):
        field = make_field(8)
        base_job = make_job(field)
        delta_job = make_job(flipped(field, (2, 1))).with_base(
            base_job.fingerprint
        )
        with service(delta_residual_tol=0.0) as svc:
            svc.compute(base_job, timeout=60)
            result = svc.compute(delta_job, timeout=60)
            reasons = delta_fallback_reasons(svc)
        assert result.rung == "direct"
        assert reasons.get("residual") == 1

    def test_incompatible_base_selection_falls_back(self):
        """A base cached under a different ``q`` cannot serve: the
        reconstructed fingerprint does not match the hint."""
        field = make_field(9)
        base_job = make_job(field, q=0)
        delta_job = make_job(flipped(field, (4, 0)), q=1).with_base(
            base_job.fingerprint
        )
        with service() as svc:
            svc.compute(base_job, timeout=60)
            result = svc.compute(delta_job, timeout=60)
            reasons = delta_fallback_reasons(svc)
        assert result.rung == "direct"
        assert reasons.get("incompatible") == 1

    def test_pre_v2_base_without_field_is_incompatible(self):
        """Cached results lacking the stored field (older producers)
        must never be diffed against."""
        field = make_field(10)
        base_job = make_job(field)
        legacy = JobResult(
            fingerprint=base_job.fingerprint,
            selection=Selection(PATTERN, L=SPEC.L, c=4, q=0),
            blocks={(1, 1): np.eye(SPEC.N)},
            h=None,
        )
        delta_job = make_job(flipped(field, (0, 1))).with_base(
            base_job.fingerprint
        )
        with service() as svc:
            svc.cache.put(legacy)
            result = svc.compute(delta_job, timeout=60)
            reasons = delta_fallback_reasons(svc)
        assert result.rung == "direct"
        assert reasons.get("incompatible") == 1

    def test_delta_updates_disabled(self):
        field = make_field(11)
        base_job = make_job(field)
        delta_job = make_job(flipped(field, (3, 3))).with_base(
            base_job.fingerprint
        )
        with service(delta_updates=False) as svc:
            svc.compute(base_job, timeout=60)
            ticket = svc.submit(delta_job)
            result = ticket.result(timeout=60)
            stats = svc.stats()["delta"]
        assert not ticket.delta_hit
        assert result.rung == "direct"
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(delta_rank_budget=0)
        with pytest.raises(ValueError):
            ServiceConfig(delta_max_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(delta_solver_states=0)


# ----------------------------------------------------------------------
# fingerprint versioning
# ----------------------------------------------------------------------

class TestFingerprintVersion:
    def test_version_bump_invalidates_fingerprints(self, monkeypatch):
        from repro.service import job as job_module

        field = make_field(12)
        before = make_job(field).fingerprint
        monkeypatch.setattr(
            job_module, "_FINGERPRINT_VERSION",
            job_module._FINGERPRINT_VERSION + 1,
        )
        after = make_job(field).fingerprint
        assert before != after

    def test_current_version_is_three(self):
        # v2 added JobResult.h for delta bases; v3 added the
        # equal_time/spectral workload marker to the digest.
        from repro.service.job import _FINGERPRINT_VERSION

        assert _FINGERPRINT_VERSION == 3


# ----------------------------------------------------------------------
# satellite fixes: cache counters + monotonic uptime
# ----------------------------------------------------------------------

def _result(fp: str, n: int = 4) -> JobResult:
    return JobResult(
        fingerprint=fp,
        selection=Selection(Pattern.DIAGONAL, L=4, c=2, q=0),
        blocks={(1, 1): np.zeros((n, n))},
    )


class TestCacheCounters:
    def test_clear_resets_counters(self):
        cache = LRUResultCache(max_bytes=1 << 20)
        cache.put(_result("a"))
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        cache.clear()
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.evictions == 0
        assert stats.drops == 0
        assert stats.entries == 0
        assert stats.bytes_used == 0
        assert stats.hit_rate == 0.0

    def test_disabled_cache_put_counts_drop(self):
        cache = LRUResultCache(max_bytes=0)
        assert not cache.put(_result("a"))
        assert cache.stats().drops == 1

    def test_oversized_put_counts_drop(self):
        cache = LRUResultCache(max_bytes=8)
        assert not cache.put(_result("a", n=64))
        assert cache.stats().drops == 1

    def test_peek_does_not_touch_counters_but_refreshes_recency(self):
        one, two = _result("one"), _result("two")
        cache = LRUResultCache(max_bytes=one.nbytes + two.nbytes)
        cache.put(one)
        cache.put(two)
        assert cache.peek("one") is one
        assert cache.peek("missing") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0
        # "one" was refreshed by peek: inserting a third evicts "two".
        cache.put(_result("three"))
        assert "one" in cache and "two" not in cache


class TestMonotonicUptime:
    def test_uptime_survives_wall_clock_step(self, monkeypatch):
        metrics = ServiceMetrics()
        # Step the wall clock a day backwards: uptime must not care.
        monkeypatch.setattr(time, "time", lambda: -86400.0)
        uptime = metrics.stats()["uptime_seconds"]
        assert uptime >= 0.0
        assert uptime < 60.0
