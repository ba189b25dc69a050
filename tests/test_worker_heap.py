"""Pool workers keep their heap across jobs, and report their page faults.

* a 1-worker pool serving paper-scale DIAGONAL jobs takes tens of minor
  faults per job once warm, not the ~1,750-2,400 it takes when glibc
  trims each job's freed heap back to the kernel
  (:func:`repro.parallel.heap.keep_heap`);
* each job's fault count reaches the ``worker.job`` span and the
  service's ``repro_worker_minor_faults`` histogram.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.bench.workloads import VALIDATION
from repro.core.patterns import Pattern
from repro.hubbard.hs_field import HSField
from repro.parallel.heap import HAS_MALLOPT
from repro.service import (
    GreensJob, GreensService, ModelSpec, ServiceConfig, WorkerPool,
)
from repro.telemetry.exporters import prometheus_text

#: Warm-job fault ceiling: a warm worker took 11-24 faults per
#: DIAGONAL job on a 2-core host, and 1,750-1,800 without the heap kept.
WARM_FAULTS = 200


@pytest.fixture
def _clean_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.mark.skipif(not HAS_MALLOPT, reason="needs glibc's mallopt")
def test_pool_worker_keeps_its_heap_across_jobs():
    w = VALIDATION
    spec = ModelSpec(nx=w.nx, ny=w.ny, L=w.L, t=w.t, U=w.U, beta=w.beta)
    assert (spec.N, spec.L, w.c) == (100, 64, 8)
    jobs = [
        GreensJob.from_field(
            spec, HSField.random(spec.L, spec.N, np.random.default_rng(seed)),
            c=w.c, pattern=Pattern.DIAGONAL, q=3,
        )
        for seed in range(6)
    ]
    pool = WorkerPool(workers=1)
    try:
        faults = [pool.run(job).minor_faults for job in jobs]
    finally:
        pool.shutdown()
    # The first job faults its heap in; the count is live.
    assert faults[0] > WARM_FAULTS, faults
    assert all(f < WARM_FAULTS for f in faults[2:]), faults


def test_minor_faults_reach_the_span_and_the_histogram(_clean_telemetry):
    telemetry.configure(sample_rate=1.0)
    spec = ModelSpec(nx=2, ny=2, L=8)
    field = HSField.random(spec.L, spec.N, np.random.default_rng(3))
    job = GreensJob.from_field(spec, field, c=4, q=0)
    with GreensService(ServiceConfig(workers=1)) as svc:
        result = svc.submit(job).result(timeout=120.0)
        stats = svc.stats()
        text = prometheus_text(svc.metrics.registry)
    [span] = [
        record
        for records in telemetry.collector().traces().values()
        for record in records if record["name"] == "worker.job"
    ]
    assert span["attributes"]["minor_faults"] == result.minor_faults > 0
    assert stats["minor_faults"]["count"] == 1
    assert stats["minor_faults"]["max"] == result.minor_faults
    assert "repro_worker_minor_faults_count 1" in text
