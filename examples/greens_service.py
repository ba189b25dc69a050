"""Serving Green's functions: submit, coalesce, cache, observe.

A measurement pipeline rarely needs *one* Green's function — it needs a
stream of them, with substantial duplication (two spin sectors per
field, re-analysis passes, parameter sweeps that revisit
configurations).  This example runs that stream through
:class:`repro.service.GreensService` and shows the serving layer doing
its job: one FSI execution per unique request, duplicates served from
the cache, and the whole thing verified against a direct ``fsi()``
call.

Run: ``python examples/greens_service.py``
"""

import numpy as np

from repro import GreensJob, GreensService, HSField, ModelSpec, Pattern, fsi
from repro.service import ServiceConfig

# 1. The physics: a 4x4 Hubbard lattice, L = 16 slices, c = 4.  A job is
#    the model parameters + one Hubbard-Stratonovich field + (c, pattern,
#    q) — nothing else, so identical physics means identical fingerprint.
spec = ModelSpec(nx=4, ny=4, L=16, t=1.0, U=2.0, beta=1.0)
rng = np.random.default_rng(0)
fields = [HSField.random(spec.L, spec.N, rng) for _ in range(6)]
jobs = [
    GreensJob.from_field(spec, f, c=4, pattern=Pattern.DIAGONAL, q=i % 4)
    for i, f in enumerate(fields)
]
print(f"{len(jobs)} unique jobs, e.g. {jobs[0]!r}")

# 2. A stream with duplicates: every job requested twice.
stream = jobs + jobs

with GreensService(ServiceConfig(workers=2)) as svc:
    # 3. Submit is non-blocking; tickets resolve as work completes.
    tickets = [svc.submit(job) for job in stream]
    results = [t.result(timeout=300.0) for t in tickets]
    stats = svc.stats()
    print(svc.report())

# 4. Exactly one execution per unique fingerprint: the 6 duplicates were
#    coalesced onto in-flight computations or served from the cache.
assert stats["executions"] == len(jobs), stats["executions"]
assert stats["completed"] == len(stream)
dedup = stats["coalesced"] + stats["cache"]["hits"]
assert dedup == len(jobs), dedup
print(
    f"{stats['executions']} executions for {len(stream)} requests"
    f" ({stats['coalesced']} coalesced, {stats['cache']['hits']} cache hits)"
)

# 5. Both copies of a duplicate pair got literally the same result, and
#    it matches a direct fsi() call bit for bit in every selected block.
first, second = results[0], results[len(jobs)]
assert first is second or first.fingerprint == second.fingerprint
job = jobs[0]
model = spec.build_model()
direct = fsi(
    model.build_matrix(job.field(), spec.sigma),
    job.c,
    pattern=job.pattern,
    q=job.q,
)
for kl, blk in direct.selected.items():
    np.testing.assert_allclose(first.blocks[kl], blk, rtol=1e-12, atol=1e-12)
print(f"served blocks match direct fsi() on {len(first.blocks)} blocks")

# 6. The flop accounting flowed back from the worker processes: the
#    service attributes work to CLS/BSOFI/WRP exactly like the offline
#    harness does.
stages = stats["flops"]["stages"]
assert {"cls", "bsofi", "wrp"} <= set(stages)
print(
    "stage flops: "
    + ", ".join(f"{k} {v:.2e}" for k, v in sorted(stages.items()))
)
