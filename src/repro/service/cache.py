"""Byte-budgeted LRU cache of computed Green's-function results.

Measurement sweeps re-request the same configurations (e.g. the two
spin sectors of one HS field, or re-analysis passes over a stored
Markov chain), so a modest cache converts a large fraction of traffic
into O(1) lookups.  Keys are job fingerprints (content-addressed, see
:mod:`repro.service.job`), so a hit is *by construction* the exact
result the computation would have produced.

Eviction is least-recently-used under a byte budget measured on the
stored blocks (``JobResult.nbytes``): selected inversions are large and
few, so counting entries would be meaningless — memory is the scarce
resource, exactly as in the paper's Fig. 9 OOM analysis.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .job import JobResult

__all__ = ["CacheStats", "LRUResultCache"]


@dataclass
class CacheStats:
    """Point-in-time cache counters (returned by :meth:`LRUResultCache.stats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: ``put()`` calls rejected without storing (cache disabled, or the
    #: result alone exceeds the whole byte budget).
    drops: int = 0
    entries: int = 0
    bytes_used: int = 0
    bytes_budget: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUResultCache:
    """Thread-safe LRU mapping ``fingerprint -> JobResult``.

    ``max_bytes <= 0`` disables caching entirely (every ``get`` misses,
    every ``put`` is dropped) — useful for benchmarking the uncached
    path without touching service wiring.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, JobResult] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._drops = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> JobResult | None:
        """Return the cached result (refreshing recency) or ``None``."""
        with self._lock:
            result = self._entries.get(fingerprint)
            if result is None:
                self._misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            return result

    def peek(self, fingerprint: str) -> JobResult | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        For callers that count lookups themselves (the service counts
        each request's lookup once, in its metrics) or whose misses are
        not cache failures (delta-base probes).  Recency is still
        refreshed: a result actively used as a delta base is exactly
        the one eviction should spare.
        """
        with self._lock:
            result = self._entries.get(fingerprint)
            if result is not None:
                self._entries.move_to_end(fingerprint)
            return result

    def put(self, result: JobResult) -> bool:
        """Insert under the byte budget; return whether it was stored.

        A result larger than the whole budget is not cached (it would
        evict everything and then still not pay for itself).  Rejected
        inserts are counted as ``drops`` in :meth:`stats`.
        """
        size = result.nbytes
        if self.max_bytes <= 0 or size > self.max_bytes:
            with self._lock:
                self._drops += 1
            return False
        with self._lock:
            old = self._entries.pop(result.fingerprint, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[result.fingerprint] = result
            self._bytes += size
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1
            return True

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry *and* reset the counters.

        A cleared cache starts a fresh accounting epoch: keeping the
        old hit/miss/eviction tallies would make ``stats().hit_rate``
        blend traffic from before and after the clear.
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._drops = 0

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                drops=self._drops,
                entries=len(self._entries),
                bytes_used=self._bytes,
                bytes_budget=self.max_bytes,
            )
