"""repro.service — a cached, coalescing Green's-function computation service.

A production-shaped serving layer over the FSI core: content-addressed
jobs (:mod:`job`), a bounded priority queue with configurable
backpressure (:mod:`queue`), request coalescing and one-job-per-worker
dispatch (:mod:`scheduler`), a recycling process worker pool with
timeouts and crash retry (:mod:`workers`), a byte-budgeted LRU result
cache (:mod:`cache`) and serving metrics (:mod:`metrics`).  Robustness
— admission validation, a worker-pool circuit breaker with
HEALTHY/DEGRADED/FAILED states, guarded solves and deterministic fault
injection — is layered on via :mod:`repro.resilience` (see
``docs/robustness.md``).

Quickstart::

    from repro.service import (
        GreensJob, GreensService, ModelSpec, ServiceConfig,
    )
    from repro import HSField, Pattern

    spec = ModelSpec(nx=6, ny=6, L=32)
    field = HSField.random(spec.L, spec.N, rng=0)
    job = GreensJob.from_field(spec, field, c=4, pattern=Pattern.COLUMNS)

    with GreensService(ServiceConfig(workers=2)) as svc:
        blocks = svc.submit(job).result().blocks
"""

from .cache import CacheStats, LRUResultCache
from .errors import (
    InvalidJobError,
    JobFailedError,
    JobSheddedError,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    ServiceDegradedError,
    ServiceError,
    WorkerCrashError,
)
from .job import GreensJob, JobResult, ModelSpec
from .metrics import Counter, Histogram, ServiceMetrics
from .queue import BackpressurePolicy, BoundedPriorityQueue, QueueEntry
from .scheduler import GreensService, JobTicket, ServiceConfig
from .workers import WorkerPool, chaos_task, execute_batch, execute_job

__all__ = [
    "BackpressurePolicy",
    "BoundedPriorityQueue",
    "CacheStats",
    "Counter",
    "GreensJob",
    "GreensService",
    "Histogram",
    "InvalidJobError",
    "JobFailedError",
    "JobResult",
    "JobSheddedError",
    "JobTicket",
    "JobTimeoutError",
    "LRUResultCache",
    "ModelSpec",
    "QueueEntry",
    "QueueFullError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceDegradedError",
    "ServiceError",
    "ServiceMetrics",
    "WorkerCrashError",
    "WorkerPool",
    "chaos_task",
    "execute_batch",
    "execute_job",
]
