"""The service job model: content-addressed Green's-function requests.

A DQMC Green's function is fully determined by the static model
parameters plus the Hubbard–Stratonovich field ``h`` (see
:mod:`repro.hubbard.hs_field`), and an FSI call is further pinned down
by ``(c, pattern, q)``.  :class:`GreensJob` packages exactly that data —
nothing derived, nothing mutable — so two requests for the same physics
are *byte-identical* and hash to the same **fingerprint**.  The
fingerprint is a SHA-256 over a canonical little-endian encoding, never
Python's randomised ``hash()``, so it is stable across processes,
interpreter restarts and machines; the scheduler uses it for request
coalescing and the result cache uses it as the key.

Jobs are plain frozen dataclasses of scalars + ``bytes``, so they
pickle cheaply across the process-pool boundary (the field buffer is
``L*N`` int8 — the same unit Alg. 3 ships over MPI).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import struct
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..core.patterns import BlockArray, Pattern, Selection
from ..hubbard.hs_field import HSField
from ..hubbard.lattice import RectangularLattice
from ..hubbard.matrix import HubbardModel
from ..spectral.grid import SpectralSpec

__all__ = ["ModelSpec", "GreensJob", "JobResult"]

#: Bump when the canonical encoding changes — keeps stale cache entries
#: from ever colliding with fingerprints of a newer layout.
#: v2: results gained delta-serving fields (``JobResult.h`` /
#: ``delta_depth``); older cached entries lack the base field needed to
#: chain updates, so they must not be served as delta bases.
#: v3: jobs gained the spectral workload discriminator — every job now
#: hashes an explicit workload marker (equal-time vs. the encoded
#: omega-grid), so equal-time entries can never collide with spectral
#: ones and pre-v3 entries never serve either.
_FINGERPRINT_VERSION = 3


@dataclass(frozen=True)
class ModelSpec:
    """Static Hubbard-model parameters, in service-wire form.

    A hashable, picklable mirror of :class:`~repro.hubbard.matrix.
    HubbardModel` restricted to what the service needs to rebuild the
    model inside a worker process.
    """

    nx: int
    ny: int
    L: int
    t: float = 1.0
    U: float = 2.0
    beta: float = 1.0
    mu: float = 0.0
    sigma: int = +1

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"lattice {self.nx}x{self.ny} must be >= 1x1")
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")

    @property
    def N(self) -> int:
        return self.nx * self.ny

    @classmethod
    def from_model(cls, model: HubbardModel, sigma: int = +1) -> "ModelSpec":
        """Derive a spec from a live model (scalar ``mu`` only)."""
        if np.ndim(model.mu) != 0:
            raise ValueError(
                "site-dependent mu is not supported by the service job model"
            )
        return cls(
            nx=model.lattice.nx,
            ny=model.lattice.ny,
            L=model.L,
            t=model.t,
            U=model.U,
            beta=model.beta,
            mu=float(model.mu),
            sigma=sigma,
        )

    def build_model(self) -> HubbardModel:
        """The :class:`HubbardModel` of this spec (e.g. inside a worker).

        Memoised per process (:data:`_MODEL_CACHE_SIZE` specs, LRU): the
        model caches ``eigh(K)`` and the kinetic exponentials, which
        every job with the same spec would otherwise recompute.
        """
        return _build_model(self)

    def encode(self) -> bytes:
        """Canonical little-endian encoding (fingerprint input)."""
        return struct.pack(
            "<5i4d",
            _FINGERPRINT_VERSION,
            self.nx,
            self.ny,
            self.L,
            self.sigma,
            self.t,
            self.U,
            self.beta,
            self.mu,
        )


#: Models kept by :meth:`ModelSpec.build_model`, per process.
_MODEL_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_MODEL_CACHE_SIZE)
def _build_model(spec: ModelSpec) -> HubbardModel:
    return HubbardModel(
        RectangularLattice(spec.nx, spec.ny),
        L=spec.L,
        t=spec.t,
        U=spec.U,
        beta=spec.beta,
        mu=spec.mu,
    )


@dataclass(frozen=True)
class GreensJob:
    """One selected-inversion request: model + field + ``(c, pattern, q)``.

    ``h`` is the flat int8 HS-field buffer (:meth:`HSField.to_buffer`
    bytes) — the compact wire unit of Alg. 3.  ``q`` must be concrete:
    the randomised-``q`` convention of the paper happens at submission
    time (see :meth:`from_field`), never inside the service, so that a
    job's identity is deterministic.

    ``base_fingerprint`` is an optional *routing hint* naming a cached
    result this request differs from by a few HS flips — the scheduler
    may then serve a Sherman–Morrison delta update instead of a full
    solve.  It is deliberately excluded from equality and the
    fingerprint: the hint changes how a result is computed, never what
    the result is.

    ``spectral`` switches the workload: ``None`` requests the classic
    equal-time selected inversion; a :class:`~repro.spectral.grid.
    SpectralSpec` requests resolvent blocks ``G(omega + i eta)`` on
    that grid instead.  The grid is part of the physics, so (unlike the
    routing hint) it participates in equality and the fingerprint.
    """

    spec: ModelSpec
    h: bytes
    c: int
    pattern: Pattern = Pattern.DIAGONAL
    q: int = 0
    base_fingerprint: str | None = field(default=None, compare=False)
    spectral: "SpectralSpec | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.pattern, Pattern):
            raise TypeError(f"pattern must be a Pattern, got {self.pattern!r}")
        if not isinstance(self.h, bytes):
            raise TypeError("h must be the raw bytes of an int8 HS buffer")
        if self.c < 1 or self.spec.L % self.c != 0:
            raise ValueError(
                f"c={self.c} must be a positive divisor of L={self.spec.L}"
            )
        if not 0 <= self.q <= self.c - 1:
            raise ValueError(f"q={self.q} must lie in [0, {self.c - 1}]")
        if len(self.h) != self.spec.L * self.spec.N:
            raise ValueError(
                f"h has {len(self.h)} entries, expected"
                f" L*N = {self.spec.L * self.spec.N}"
            )
        if self.spectral is not None and not isinstance(
            self.spectral, SpectralSpec
        ):
            raise TypeError(
                f"spectral must be a SpectralSpec or None, got {self.spectral!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_field(
        cls,
        spec: ModelSpec,
        field: HSField,
        c: int,
        pattern: Pattern = Pattern.DIAGONAL,
        q: int | None = None,
        rng: np.random.Generator | int | None = None,
        spectral: SpectralSpec | None = None,
    ) -> "GreensJob":
        """Build a job from a live field; draw ``q`` here if not given."""
        if q is None:
            q = int(np.random.default_rng(rng).integers(0, c))
        return cls(
            spec=spec,
            h=field.to_buffer().tobytes(),
            c=c,
            pattern=pattern,
            q=q,
            spectral=spectral,
        )

    def field(self) -> HSField:
        """Rebuild the HS field from the wire buffer."""
        return HSField.from_buffer(
            np.frombuffer(self.h, dtype=np.int8), self.spec.L, self.spec.N
        )

    def with_base(self, base_fingerprint: str | None) -> "GreensJob":
        """A copy of this job carrying a delta-base routing hint."""
        return dataclasses.replace(self, base_fingerprint=base_fingerprint)

    # ------------------------------------------------------------------
    @cached_property
    def fingerprint(self) -> str:
        """Content-addressed identity: SHA-256 hex over the canonical
        encoding of everything that determines the result."""
        digest = hashlib.sha256()
        digest.update(self.spec.encode())
        digest.update(struct.pack("<2i", self.c, self.q))
        digest.update(self.pattern.value.encode())
        # Workload discriminator (v3): an explicit marker keeps the
        # equal-time and spectral encodings prefix-free, so no grid can
        # ever collide with an equal-time request.
        if self.spectral is None:
            digest.update(b"equal_time")
        else:
            digest.update(b"spectral")
            digest.update(self.spectral.encode())
        digest.update(self.h)
        return digest.hexdigest()

    @property
    def workload(self) -> str:
        """``"equal_time"`` or ``"spectral"`` — the job's workload class."""
        return "equal_time" if self.spectral is None else "spectral"

    @property
    def compat_key(self) -> tuple:
        """Jobs sharing this key differ only in the HS field and ``q``:
        :func:`~repro.service.workers.execute_batch` (the benchmark
        harness's replay loop) accepts only lists of such jobs.  Spectral
        jobs share it only with jobs sweeping the same grid."""
        return (self.spec, self.c, self.pattern, self.spectral)

    @property
    def selection(self) -> Selection:
        return Selection(self.pattern, L=self.spec.L, c=self.c, q=self.q)

    @property
    def result_nbytes(self) -> int:
        """Bytes of this job's result blocks, fixed by the selection
        before any compute: ``N x N`` float64 per selected block, or
        complex128 per block and omega point for a spectral job.  The
        worker pool sizes the segment it lends the job by this."""
        if self.spectral is None:
            per_block = np.dtype(np.float64).itemsize
        else:
            per_block = np.dtype(np.complex128).itemsize * self.spectral.n_omega
        return self.selection.count() * self.spec.N ** 2 * per_block

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GreensJob({self.spec.nx}x{self.spec.ny}, L={self.spec.L},"
            f" c={self.c}, {self.pattern.value}, q={self.q},"
            f" fp={self.fingerprint[:12]})"
        )


@dataclass
class JobResult:
    """Computed selected blocks plus execution accounting.

    ``blocks`` is keyed by 1-based ``(k, l)`` and holds every block in
    one buffer: a :class:`~repro.core.patterns.BlockArray` (the
    solver's :class:`~repro.core.patterns.SelectedInversion` as is; any
    other mapping passed in is stacked into one); ``stage_flops``
    carries the worker's flops per :func:`repro.telemetry.stage` (as
    its :class:`~repro.telemetry.FlopTracer` read them), so service
    metrics can attribute flops to CLS/BSOFI/WRP without re-tracing.
    """

    fingerprint: str
    selection: Selection
    blocks: BlockArray
    stage_flops: dict[str, float] = field(default_factory=dict)
    exec_seconds: float = 0.0
    #: Minor page faults the process took over the job, model build
    #: included (``ru_minflt``; 0 for results the service built itself).
    #: A worker that keeps its heap (:mod:`repro.parallel.heap`) takes
    #: tens per paper-scale DIAGONAL job, one that does not thousands.
    minor_faults: int = 0
    #: Which solve path served the blocks: ``"direct"``, a fallback
    #: ``"c=<n>"`` rung, ``"udt"`` (see ``core.fsi.fsi_resilient``),
    #: ``"delta(<k>)"`` for a rank-``k`` Sherman–Morrison update of a
    #: cached base (see ``service.scheduler`` and ``core.smw``), or
    #: ``"spectral(<n_omega>)"`` for a resolvent sweep over an
    #: ``n_omega``-point grid (blocks then stack shifts along axis 0).
    rung: str = "direct"
    #: The HS-field buffer the blocks belong to.  Stored so a cached
    #: result can serve as the *base* of a later delta update (the
    #: scheduler diffs the request's field against it); ``None`` on
    #: results from pre-v2 producers, which therefore never serve as
    #: bases.
    h: bytes | None = None
    #: Length of the delta chain behind this result: 0 for a fresh
    #: solve, ``base.delta_depth + 1`` for a delta update.  Bounds
    #: round-off accumulation — the scheduler refuses to extend chains
    #: past ``ServiceConfig.delta_max_depth`` (Bauer-style
    #: restabilisation by a fresh solve).
    delta_depth: int = 0
    computed_at: float = field(default_factory=time.time)
    #: Telemetry span records collected in the worker process (present
    #: only when the dispatching request was traced; the scheduler
    #: drains these into the global collector and clears the field
    #: before the result is cached).
    spans: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.blocks, BlockArray):
            self.blocks = BlockArray.from_mapping(self.blocks)

    @property
    def flops(self) -> float:
        """Total flops: the sum of ``stage_flops``."""
        return sum(self.stage_flops.values())

    @property
    def nbytes(self) -> int:
        """Cache accounting: bytes held by the selected blocks."""
        return self.blocks.nbytes

    def block(self, k: int, l: int) -> np.ndarray:
        """Fetch block ``(k, l)`` (1-based, as selected)."""
        return self.blocks[(k, l)]
