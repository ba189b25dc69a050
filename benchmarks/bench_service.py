"""Wall-clock benchmarks of the Green's-function service.

Measures the serving layer itself, not the FSI math: end-to-end
throughput of a duplicate-heavy job stream, submit-path latency on a
warm cache, and the overhead the scheduler adds over calling
:func:`repro.core.fsi.fsi` directly.

Each benchmark also prints the service-side percentiles and cache hit
rate so a run leaves a throughput + latency + cache record next to the
pytest-benchmark timing table.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import (
    BENCH_SMALL,
    arrival_times,
    make_job_stream,
    run_job_stream,
)
from repro.service import GreensService, ServiceConfig

#: Stream sizes kept small enough that the whole file runs in well
#: under a minute; the service paths (queue, coalescing, cache, pool)
#: dominate at this scale, which is exactly what we want to measure.
N_JOBS = 32
DUPLICATE_FRACTION = 0.5


def _fresh_service(workers: int = 2) -> GreensService:
    return GreensService(ServiceConfig(workers=workers))


@pytest.mark.benchmark(group="service")
def bench_service_burst_throughput(benchmark):
    """Closed-loop burst: N jobs with 50% duplicates, 2 workers."""
    jobs = make_job_stream(
        BENCH_SMALL, N_JOBS, duplicate_fraction=DUPLICATE_FRACTION, seed=3
    )
    reports = []

    def run():
        with _fresh_service(workers=2) as svc:
            report = run_job_stream(svc, jobs, arrivals=None)
        reports.append(report)
        return report

    benchmark(run)
    last = reports[-1]
    assert last.failed == 0
    print(f"\n[bench_service_burst_throughput] {last.summary()}")


@pytest.mark.benchmark(group="service")
def bench_service_poisson_stream(benchmark):
    """Open-loop Poisson arrivals replayed at 20x speed."""
    jobs = make_job_stream(
        BENCH_SMALL, N_JOBS, duplicate_fraction=DUPLICATE_FRACTION, seed=4
    )
    arrivals = arrival_times(len(jobs), kind="poisson", rate=400.0, seed=4)
    reports = []

    def run():
        with _fresh_service(workers=2) as svc:
            report = run_job_stream(svc, jobs, arrivals=arrivals)
        reports.append(report)
        return report

    benchmark(run)
    last = reports[-1]
    assert last.failed == 0
    print(f"\n[bench_service_poisson_stream] {last.summary()}")


@pytest.mark.benchmark(group="service")
def bench_service_warm_cache_submit(benchmark):
    """Submit latency when every request is a cache hit.

    This is the pure serving overhead: fingerprint lookup + ticket
    resolution, no queueing and no FSI execution.
    """
    jobs = make_job_stream(BENCH_SMALL, 4, duplicate_fraction=0.0, seed=5)
    svc = _fresh_service(workers=1)
    try:
        for job in jobs:
            svc.submit(job).result(timeout=60.0)

        def warm_submit():
            for job in jobs:
                svc.submit(job).result(timeout=60.0)

        benchmark(warm_submit)
        stats = svc.stats()
        assert stats["executions"] == len(jobs)
        print(
            f"\n[bench_service_warm_cache_submit] cache hit rate"
            f" {stats['cache']['hit_rate'] * 100:.1f}% over"
            f" {stats['cache']['hits'] + stats['cache']['misses']} lookups"
        )
    finally:
        svc.shutdown()
