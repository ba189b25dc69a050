"""Transport interface: communicators, stats, and the world contract.

The paper's coarse-grained level distributes independent Hubbard
matrices over MPI ranks (Alg. 3).  ``mpi4py`` is not available here, so
:mod:`repro.transport` defines the abstract surface those algorithms
program against, with two runtimes under it:

========== ============================ =====================================
backend     ranks are                    payload path
========== ============================ =====================================
``threads`` threads in this process      in-memory mailbox (buffer copy)
``mp-shm``  forked OS processes          pipes; large buffers via POSIX
                                         ``multiprocessing.shared_memory``
========== ============================ =====================================

Both backends expose the same mpi4py-flavoured :class:`BaseCommunicator`
API — lowercase object methods (``send``/``recv``/``bcast``/``scatter``/
``gather``/``reduce``/``allreduce``) and uppercase buffer methods
(``Send``/``Recv``/``Scatter``/``Reduce``) — and tally every transfer
into :class:`CommStats`.  Collectives are implemented *once*, here, on
top of two backend primitives (:meth:`BaseCommunicator._send_raw` and
:meth:`BaseCommunicator._recv_raw`), so message tallies are identical
across backends and reflect an actual fan-in/fan-out.

:func:`repro.transport.create_world` picks the backend by name, or from
the ``REPRO_TRANSPORT`` environment variable.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from ..telemetry import runtime as _telemetry

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "RankError",
    "TransportTimeoutError",
    "CommStats",
    "BaseCommunicator",
    "Transport",
    "TRANSPORT_ENV",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: Environment variable naming the default backend of ``create_world``.
TRANSPORT_ENV = "REPRO_TRANSPORT"

# Collective tags descend from this base, one generation per collective
# call (see BaseCommunicator._coll_tag); user tags must be non-negative
# or small negatives, which never collide with the descending sequence.
_TAG_COLL_BASE = -1000


class TransportTimeoutError(TimeoutError):
    """A typed timeout from ``recv`` or ``Transport.run``.

    Subclasses :class:`TimeoutError` so callers that caught the old
    untyped error keep working.
    """


class RankError(RuntimeError):
    """An exception raised inside a rank function, annotated with the rank.

    ``stats`` carries the world's partial :class:`CommStats` at teardown
    — the merged message/byte tallies of *all* ranks (survivors
    included), not just the failing rank's — so post-mortems can see how
    far the exchange got before the failure.
    """

    def __init__(
        self,
        rank: int,
        original: BaseException,
        stats: "CommStats | None" = None,
    ) -> None:
        msg = f"rank {rank} failed: {original!r}"
        if stats is not None:
            msg += (
                f" [partial comm: {stats.total_messages} messages,"
                f" {stats.total_bytes} bytes]"
            )
        super().__init__(msg)
        self.rank = rank
        self.original = original
        self.stats = stats

    def __reduce__(self) -> tuple[Any, ...]:
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__`` and blows up on the signature; a
        # RankError must survive a result pipe when fleets nest inside
        # process workers, so reconstruct from the real fields.
        return (type(self), (self.rank, self.original, self.stats))


@dataclass
class CommStats:
    """Message/byte tallies per operation kind (thread-safe)."""

    messages: dict[str, int] = field(default_factory=dict)
    bytes: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __getstate__(self) -> dict:
        # Locks don't pickle; tallies ride result pipes inside
        # ``RankError.stats``, so ship the counters and regrow a lock.
        return {"messages": dict(self.messages), "bytes": dict(self.bytes)}

    def __setstate__(self, state: dict) -> None:
        self.messages = state["messages"]
        self.bytes = state["bytes"]
        self._lock = threading.Lock()

    def record(self, op: str, nbytes: int) -> None:
        with self._lock:
            self.messages[op] = self.messages.get(op, 0) + 1
            self.bytes[op] = self.bytes.get(op, 0) + nbytes
        if _telemetry.enabled():
            self._record_telemetry(op, nbytes)

    def merge_counts(self, messages: dict[str, int], nbytes: dict[str, int]) -> None:
        """Fold another tally into this one (used at world teardown to
        merge the per-process stats shipped back by every rank — partial
        tallies from *all* ranks survive a :class:`RankError`)."""
        with self._lock:
            for op, n in messages.items():
                self.messages[op] = self.messages.get(op, 0) + n
            for op, n in nbytes.items():
                self.bytes[op] = self.bytes.get(op, 0) + n
        if _telemetry.enabled():
            for op in set(messages) | set(nbytes):
                self._record_telemetry(
                    op, nbytes.get(op, 0), count=messages.get(op, 0)
                )

    def _record_telemetry(self, op: str, nbytes: int, count: int = 1) -> None:
        """Mirror the tally into the global metric registry.

        Per-op counter children are cached after the first lookup so
        the enabled path is two dict hits plus two increments.
        """
        cache = self.__dict__.get("_registry_children")
        if cache is None or cache[0] is not _telemetry.registry():
            registry = _telemetry.registry()
            cache = (registry, {})
            self.__dict__["_registry_children"] = cache
        children = cache[1]
        pair = children.get(op)
        if pair is None:
            registry = cache[0]
            pair = (
                registry.counter(
                    "repro_simmpi_messages_total",
                    "Transport messages by operation",
                    labels=("op",),
                ).labels(op=op),
                registry.counter(
                    "repro_simmpi_bytes_total",
                    "Transport payload bytes by operation",
                    labels=("op",),
                ).labels(op=op),
            )
            children[op] = pair
        if count:
            pair[0].inc(count)
        if nbytes:
            pair[1].inc(nbytes)

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())


def _payload_bytes(obj: Any) -> int:
    """Approximate wire size of a message payload.

    For NumPy arrays this is the size of the *materialized contiguous
    buffer* (``size * itemsize``) — what a real transport moves after
    packing — so strided or transposed views tally identically to the
    contiguous copy a send actually ships.  Object-dtype arrays recurse
    into their elements (the pointer array itself never crosses a
    process boundary).
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return sum(_payload_bytes(o) for o in obj.ravel().tolist())
        return int(obj.size) * int(obj.itemsize)
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    return 64  # scalar / small object estimate


class _Aborted(RuntimeError):
    """Raised in blocked ranks when another rank has already failed."""


class _Mailbox:
    """Per-rank FIFO of (source, tag, payload) with condition-variable waits.

    A mailbox can be *aborted*: any blocked or future ``get`` raises
    immediately.  The world aborts all mailboxes when a rank dies, so
    peers blocked on a message that will never arrive fail fast instead
    of hanging until the join timeout (real MPI likewise tears the job
    down when one rank aborts).  The ``mp-shm`` backend feeds each
    rank's mailbox from its channel reader threads.
    """

    def __init__(self) -> None:
        self._items: deque[tuple[int, int, Any]] = deque()
        self._cv = threading.Condition()
        self._abort_reason: str | None = None

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cv:
            self._items.append((source, tag, payload))
            self._cv.notify_all()

    def abort(self, reason: str) -> None:
        with self._cv:
            self._abort_reason = reason
            self._cv.notify_all()

    def get(self, source: int, tag: int, timeout: float | None) -> tuple[int, int, Any]:
        def match() -> int | None:
            for idx, (s, t, _) in enumerate(self._items):
                if (source in (ANY_SOURCE, s)) and (tag in (ANY_TAG, t)):
                    return idx
            return None

        # One deadline for the whole receive: a non-matching message
        # wakes the wait but must not restart the timeout.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            idx = match()
            while idx is None:
                if self._abort_reason is not None:
                    raise _Aborted(self._abort_reason)
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TransportTimeoutError(
                        f"recv(source={source}, tag={tag}) timed out"
                    )
                self._cv.wait(timeout=remaining)
                idx = match()
            item = self._items[idx]
            del self._items[idx]
            return item


class BaseCommunicator:
    """One rank's view of the communicator (mpi4py-flavoured API).

    Backends implement three primitives —

    * :meth:`_send_raw` — deliver any object to a peer (no stats);
    * :meth:`_recv_raw` — blocking matched receive (no stats);
    * :meth:`_send_buffer` — deliver a contiguous array (no stats;
      defaults to ``_send_raw``, overridden where a faster buffer path
      exists, e.g. shared memory);

    everything else — the public API, every collective, and all
    :class:`CommStats` tallies — is implemented here once, so backends
    are tally-identical by construction.
    """

    def __init__(self, rank: int, size: int, stats: CommStats) -> None:
        self._rank = rank
        self._size = size
        self._stats = stats
        # Collective generation counter: every collective call consumes
        # one generation on every rank (SPMD ordering requirement, as in
        # real MPI), giving successive collectives disjoint tags so a
        # fast rank's next collective cannot be matched into the current
        # one.
        self._coll_seq = 0

    # -- backend primitives ------------------------------------------------
    def _send_raw(self, obj: Any, dest: int, tag: int) -> None:
        raise NotImplementedError

    def _recv_raw(
        self, source: int, tag: int, timeout: float | None
    ) -> tuple[int, int, Any]:
        raise NotImplementedError

    def _send_buffer(self, buf: np.ndarray, dest: int, tag: int) -> None:
        self._send_raw(buf, dest, tag)

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self._size:
            raise ValueError(f"rank {r} out of range for world size {self._size}")

    def _coll_tag(self) -> int:
        tag = _TAG_COLL_BASE - self._coll_seq
        self._coll_seq += 1
        return tag

    # -- identity ----------------------------------------------------------
    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # -- point-to-point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Object send (any Python object; NumPy payloads are decoupled
        from the sender — by copy in-process, by serialisation across
        processes)."""
        self._check_rank(dest)
        self._stats.record("send", _payload_bytes(obj))
        self._send_raw(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> Any:
        _, _, payload = self._recv_raw(source, tag, timeout)
        return payload

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer send (contiguous NumPy array)."""
        buf = np.ascontiguousarray(buf)
        self._check_rank(dest)
        self._stats.record("Send", buf.nbytes)
        self._send_buffer(buf, dest, tag)

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: float | None = None) -> None:
        _, _, payload = self._recv_raw(source, tag, timeout)
        incoming = np.asarray(payload)
        if incoming.size != buf.size:
            raise ValueError(
                f"Recv buffer size {buf.size} != message size {incoming.size}"
            )
        buf.reshape(-1)[:] = incoming.reshape(-1)

    # -- collectives (built on point-to-point) -----------------------------
    def barrier(self) -> None:
        """Linear fan-in to rank 0 then fan-out."""
        tag = self._coll_tag()
        self._stats.record("barrier", 0)
        if self._rank == 0:
            for r in range(1, self.size):
                self.recv(source=r, tag=tag)
            for r in range(1, self.size):
                self.send(None, dest=r, tag=tag)
        else:
            self.send(None, dest=0, tag=tag)
            self.recv(source=0, tag=tag)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root)
        tag = self._coll_tag()
        if self._rank == root:
            self._stats.record("bcast", _payload_bytes(obj) * (self.size - 1))
            for r in range(self.size):
                if r != root:
                    self.send(obj, dest=r, tag=tag)
            return obj
        return self.recv(source=root, tag=tag)

    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-``size`` sequence; each rank gets one item."""
        self._check_rank(root)
        tag = self._coll_tag()
        if self._rank == root:
            if sendobj is None or len(sendobj) != self.size:
                raise ValueError(
                    f"scatter needs a length-{self.size} sequence on root"
                )
            self._stats.record(
                "scatter", sum(_payload_bytes(o) for o in sendobj)
            )
            mine = sendobj[root]
            for r in range(self.size):
                if r != root:
                    self.send(sendobj[r], dest=r, tag=tag)
            return mine
        return self.recv(source=root, tag=tag)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root)
        tag = self._coll_tag()
        self._stats.record("gather", _payload_bytes(obj))
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                src, _, payload = self._recv_raw(ANY_SOURCE, tag, None)
                out[src] = payload
            return out
        self._send_raw(obj, root, tag)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
    ) -> Any:
        """Reduce with ``op`` (default: elementwise/numeric sum)."""
        gathered = self.gather(obj, root=root)
        if self._rank != root:
            return None
        assert gathered is not None
        self._stats.record("reduce", _payload_bytes(obj))
        return _fold(gathered, op)

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def Scatter(self, sendbuf: np.ndarray | None, recvbuf: np.ndarray, root: int = 0) -> None:
        """Buffer scatter: root's ``(size, ...)`` array, one row per rank."""
        self._check_rank(root)
        tag = self._coll_tag()
        if self._rank == root:
            if sendbuf is None or sendbuf.shape[0] != self.size:
                raise ValueError(
                    f"Scatter sendbuf must have leading dim {self.size}"
                )
            self._stats.record("Scatter", sendbuf.nbytes)
            for r in range(self.size):
                if r != root:
                    self._send_buffer(np.ascontiguousarray(sendbuf[r]), r, tag)
            recvbuf[...] = sendbuf[root]
        else:
            _, _, payload = self._recv_raw(root, tag, None)
            recvbuf[...] = payload

    def Reduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None, root: int = 0) -> None:
        """Buffer sum-reduce into root's ``recvbuf``."""
        total = self.reduce(np.ascontiguousarray(sendbuf), root=root)
        if self._rank == root:
            if recvbuf is None:
                raise ValueError("root must supply recvbuf")
            recvbuf[...] = total


def _fold(items: list[Any], op: Callable[[Any, Any], Any] | None) -> Any:
    acc = items[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
    for item in items[1:]:
        if op is not None:
            acc = op(acc, item)
        elif isinstance(acc, dict):
            acc = {k: _fold([acc[k], item[k]], None) for k in acc}
        else:
            acc = acc + item
    return acc


class Transport(ABC):
    """A "world": owns the rank runtimes, the merged stats, and ``run``.

    Usage (identical across backends)::

        def main(comm):
            if comm.rank == 0:
                data = [i ** 2 for i in range(comm.size)]
            else:
                data = None
            x = comm.scatter(data)
            return comm.reduce(x)

        results = create_world(4, backend="mp-shm").run(main)
    """

    #: Backend name (``threads`` / ``mp-shm``).
    name: ClassVar[str] = "abstract"

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.stats = CommStats()

    @abstractmethod
    def run(
        self,
        main: Callable[..., Any],
        *args: Any,
        timeout: float | None = 300.0,
    ) -> list[Any]:
        """Run ``main(comm, *args)`` on every rank; return per-rank results.

        Raises :class:`RankError` (for the primary failing rank) if any
        rank raises, with the merged partial :class:`CommStats` of all
        ranks attached; raises :class:`TransportTimeoutError` if ranks
        do not finish within ``timeout``.
        """
