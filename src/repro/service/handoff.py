"""Result handoff across the worker-pool boundary through shared memory.

A COLUMNS result at paper scale is 41 MB.  Pickled through the pool's
result pipe it is serialised in the worker, written and read through
the pipe, and rebuilt in the service process.  Instead, the worker
copies every result's block buffer (:attr:`JobResult.blocks.data
<repro.core.patterns.BlockArray.data>`) into one POSIX shared-memory
segment and returns a :class:`Parcel`: the results with empty buffers,
the segment name and each buffer's offset.  The service process maps
the segment and rebuilds each buffer as an array over the mapping, so
the mapping is the arrays' base and is unmapped when the last of them
(in the cache, in a caller's hands) is freed.  :func:`receive` unlinks
the segment at once; a pool's :class:`ResultSegments` keeps it for the
next batch.

Lifecycle of a fresh segment:

* The pool names every segment ``<pool prefix><generation>-<seq>``
  (:func:`pool_prefix` is unique per pool; the generation counts
  executor recycles) and passes the name to the task.
* The worker creates the segment, copies, and hands it over by
  unregistering it from the ``multiprocessing`` resource tracker — the
  mp-shm transport's rule (:func:`repro.transport.process.
  untrack_segment`).  On any exception it unlinks the segment itself.
* The service process maps and unlinks it in :func:`receive`, or a
  pool adopts it (below).
* A worker killed between creating and returning a segment leaves it
  behind.  After recycling an executor, and at shutdown, the pool
  calls :func:`sweep`, which removes the pool's segments of the dead
  generations.

A :class:`ResultSegments` lets a pool reuse segments instead (a fresh
segment costs the kernel a zeroed page per 4 KiB, and freeing it
again): the pool leases an idle segment to each batch, and the service
process maps it without unlinking it.  When the last array over the
mapping is freed, the segment goes back to idle.  A fresh segment the
worker had to create instead is renamed into the pool's own name
family (``<pooled prefix><n>``), which :func:`sweep` never matches.

With a lease, the result need not be copied at all.  The worker
installs an :class:`Arena` as its thread's
:func:`~repro.core.patterns.result_buffers` provider, so the batch's
first result allocation (:meth:`~repro.core.patterns.SelectedInversion.
empty`), when it is large enough and fits, is a view of the leased
segment: the solve writes the result where the service process will
read it, and :func:`export` finds it already at its offset.  Every
other buffer is copied into the lease when it fits (``copied``), else
into a fresh segment (``fresh``); :attr:`Parcel.way` says which.

Only the pool calls :func:`export` and receives parcels: pickling a
:class:`~repro.service.job.JobResult` anywhere else copies its buffer
in-band and never creates a segment.  Segments live in ``/dev/shm``;
where that directory does not exist, and for batches under
:data:`MIN_SEGMENT_BYTES`, results travel pickled.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import math
import mmap
import os
import secrets
import threading
import time
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..core.patterns import BlockArray
from ..transport.process import untrack_segment

__all__ = [
    "Arena", "Lease", "MIN_SEGMENT_BYTES", "POOLED_ROOT", "Parcel",
    "ResultSegments", "SEGMENT_ROOT", "SegmentLost", "WAYS", "export",
    "pool_prefix", "receive", "sweep",
]

#: Every pool's in-flight segment names start with this.
SEGMENT_ROOT = "repro-result-"
#: Every pool's reusable (pooled) segment names start with this.
POOLED_ROOT = "repro-pooled-"
#: Where POSIX shared memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"
#: Buffer offsets in a segment are multiples of this (cache line).
_ALIGN = 64
#: Batches whose buffers total less travel pickled: the serving
#: benchmark's workloads with 0.64-5.1 MB results (DIAGONAL, spectral
#: chunks, FULL_DIAGONAL) served 2-11% more requests per second when
#: their results were pickled than through fresh segments
#: (docs/service.md).
MIN_SEGMENT_BYTES = 8 << 20
#: Pre-fault a pooled segment's pages when the worker maps it: one
#: populate pass instead of a page fault per 4 KiB during the copy.
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)


def pool_prefix() -> str:
    """A segment-name prefix unique to one pool."""
    return f"{SEGMENT_ROOT}{os.getpid():x}-{secrets.token_hex(4)}-"


class SegmentLost(Exception):
    """A parcel's segment was swept before the service process mapped it
    (its executor was recycled meanwhile); the batch must run again."""


@dataclass(frozen=True)
class Lease:
    """A pooled segment lent to one batch: its name and size in bytes."""

    name: str
    size: int


#: How a batch's results came back (:attr:`Parcel.way`).
WAYS = ("in_place", "copied", "fresh", "pickled")


@dataclass
class Parcel:
    """What crosses the result pipe: results whose block buffers are
    empty, plus where each buffer lies in the segment (``None`` for
    items that travel as they are).

    ``way`` says how the buffers got there: solved into the leased
    segment (``in_place``), copied into it (``copied``), copied into a
    new segment (``fresh``), or not at all (``pickled``, no segment).
    ``export_seconds`` is the worker's time in :func:`export`.
    """

    segment: str | None
    offsets: list[int | None]
    results: list[Any]
    way: str = "pickled"
    export_seconds: float = 0.0


def _buffer(item: Any) -> np.ndarray | None:
    blocks = getattr(item, "blocks", None)
    return blocks.data if isinstance(blocks, BlockArray) else None


def _hollow(item: Any) -> Any:
    """A shallow copy of ``item`` whose block buffer is empty (it keeps
    its dtype and block shape, for :func:`receive` to rebuild)."""
    out = copy.copy(item)
    out.blocks = copy.copy(item.blocks)
    data = item.blocks.data
    # A fresh empty array: a ``[:0]`` view would keep the buffer (and a
    # mapping under it) alive until the parcel is collected.
    out.blocks.data = np.empty((0,) + data.shape[1:], data.dtype)
    return out


def _layout(buffers: list[np.ndarray | None]) -> tuple[list[int | None], int]:
    """Each buffer's 64-byte-aligned offset (``None``: travels as is),
    and the segment size they need."""
    offsets: list[int | None] = []
    size = 0
    for buf in buffers:
        if buf is None or buf.nbytes == 0:
            offsets.append(None)
            continue
        offsets.append(size)
        size += -(-buf.nbytes // _ALIGN) * _ALIGN
    return offsets, size


def _copy_in(view: Any, buffers: list, offsets: list[int | None]) -> None:
    for buf, offset in zip(buffers, offsets):
        if buf is not None and offset is not None:
            # A memoryview copy leaves no export of the view behind to
            # block closing it when a later buffer fails.
            raw = memoryview(np.ascontiguousarray(buf)).cast("B")
            view[offset : offset + raw.nbytes] = raw


def _map_lease(lease: Lease, size: int) -> mmap.mmap | None:
    """The first ``size`` bytes of the leased segment, pages pre-faulted;
    ``None`` when it is gone (the service process died and its resource
    tracker unlinked it)."""
    try:
        fd = os.open(f"{SHM_DIR}/{lease.name}", os.O_RDWR)
    except FileNotFoundError:
        return None
    try:
        return mmap.mmap(fd, size, flags=mmap.MAP_SHARED | _MAP_POPULATE)
    finally:
        os.close(fd)


def _fill(lease: Lease, buffers: list, offsets: list[int | None], size: int) -> bool:
    """Copy the buffers into the leased segment; ``False`` when it is
    gone."""
    mapping = _map_lease(lease, size)
    if mapping is None:
        return False
    try:
        _copy_in(mapping, buffers, offsets)
    finally:
        mapping.close()
    return True


class Arena:
    """Worker side: the leased segment as the buffer of the batch's
    first large result, so the solve writes it where the service process
    will read it.

    A :func:`repro.core.patterns.result_buffers` provider.  The first
    allocation it is offered takes the segment when it is at least
    :data:`MIN_SEGMENT_BYTES` and fits the lease: it gets a view at
    offset 0 of a ``MAP_SHARED | MAP_POPULATE`` mapping made only then.
    Every other allocation, and every one in a forked child, is left to
    the caller.  :func:`export` then copies nothing for that buffer.
    """

    def __init__(self, lease: Lease):
        self.lease = lease
        #: The bytes of the lease the taken buffer views (``None`` until
        #: an allocation takes it).
        self._region: np.ndarray | None = None
        self._offered = False
        self._pid = os.getpid()

    def __call__(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray | None:
        if self._offered or os.getpid() != self._pid:
            return None
        self._offered = True
        nbytes = math.prod(shape) * dtype.itemsize
        if not max(MIN_SEGMENT_BYTES, 1) <= nbytes <= self.lease.size:
            return None
        mapping = _map_lease(self.lease, nbytes)
        if mapping is None:
            return None
        self._region = np.ndarray((nbytes,), np.uint8, mapping)
        return np.ndarray(shape, dtype, mapping, 0)

    def holds(self, buf: np.ndarray, offset: int) -> bool:
        """Whether ``buf`` is exactly the segment's bytes at ``offset``."""
        return (
            self._region is not None
            and buf.flags.c_contiguous
            and buf.ctypes.data == self._region.ctypes.data + offset
        )

    def overlaps(self, buf: np.ndarray) -> bool:
        return self._region is not None and np.may_share_memory(buf, self._region)


def export(
    results: list[Any], segment: str, lease: Lease | None = None,
    arena: Arena | None = None,
) -> Parcel:
    """Worker side: move the block buffers of ``results`` into the
    ``lease``d segment when it is large enough, else into a new
    ``segment``.  A buffer the solve already wrote into the lease
    through ``arena``, at the offset planned for it, stays where it is.
    """
    t0 = time.perf_counter()
    parcel = _export(results, segment, lease, arena)
    parcel.export_seconds = time.perf_counter() - t0
    return parcel


def _still_to_copy(
    buffers: list, offsets: list[int | None], arena: Arena | None
) -> list:
    """What must still be copied into the lease: ``None`` where nothing
    is (no bytes, or solved in place at its offset); a private copy of a
    buffer that lies elsewhere in the lease, before another lands on it."""
    out = []
    for buf, offset in zip(buffers, offsets):
        if offset is None or (arena is not None and arena.holds(buf, offset)):
            out.append(None)
        elif arena is not None and arena.overlaps(buf):
            out.append(buf.copy())
        else:
            out.append(buf)
    return out


def _export(
    results: list[Any], segment: str, lease: Lease | None, arena: Arena | None
) -> Parcel:
    buffers = [_buffer(item) for item in results]
    offsets, size = _layout(buffers)
    if size < MIN_SEGMENT_BYTES or not os.path.isdir(SHM_DIR):
        return Parcel(None, [None] * len(results), list(results), "pickled")
    hollow = [
        item if offset is None else _hollow(item)
        for item, offset in zip(results, offsets)
    ]
    if lease is not None and lease.size >= size:
        copies = _still_to_copy(buffers, offsets, arena)
        if not any(buf is not None for buf in copies):
            return Parcel(lease.name, offsets, hollow, "in_place")
        if _fill(lease, copies, offsets, size):
            return Parcel(lease.name, offsets, hollow, "copied")
    shm = shared_memory.SharedMemory(name=segment, create=True, size=size)
    try:
        _copy_in(shm.buf, buffers, offsets)
        untrack_segment(shm.name)
    except BaseException:
        shm.unlink()
        raise
    finally:
        shm.close()
    return Parcel(segment, offsets, hollow, "fresh")


def _map(name: str) -> mmap.mmap:
    """Map segment ``name`` whole; :class:`SegmentLost` when it is gone."""
    try:
        fd = os.open(f"{SHM_DIR}/{name}", os.O_RDWR)
    except FileNotFoundError as exc:
        raise SegmentLost(name) from exc
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _rebuild(parcel: Parcel, mapping: mmap.mmap) -> list[Any]:
    """Point each hollow result's block buffer at its bytes in ``mapping``."""
    for item, offset in zip(parcel.results, parcel.offsets):
        if offset is not None:
            blocks = item.blocks
            shape = (len(blocks),) + blocks.data.shape[1:]
            blocks.data = np.ndarray(shape, blocks.data.dtype, mapping, offset)
    return parcel.results


def receive(parcel: Parcel) -> list[Any]:
    """Service side: map and unlink the parcel's segment, and rebuild
    each block buffer as a view of the mapping.

    Raises :class:`SegmentLost` when the segment is gone.
    """
    if parcel.segment is None:
        return parcel.results
    try:
        mapping = _map(parcel.segment)
    finally:
        # A concurrent sweep may have unlinked it since the open.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(f"{SHM_DIR}/{parcel.segment}")
    return _rebuild(parcel, mapping)


def _unlink_tracked(name: str) -> None:
    """Unlink a segment registered with this process's resource tracker."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(f"{SHM_DIR}/{name}")
    resource_tracker.unregister(f"/{name}", "shared_memory")


class ResultSegments:
    """The result segments one :class:`~repro.service.workers.WorkerPool`
    reuses across batches.

    A segment the pool owns is in one of three states: *idle*, *out*
    (leased to a batch that has not come back), or *held* (mapped by
    the arrays of a result the service handed out).  :meth:`lease`
    moves the largest idle segment out; :meth:`receive` moves it to
    held, or adopts the fresh segment a worker created instead; a
    ``weakref.finalize`` on the mapping moves it back to idle when the
    last array over it is freed.  At most ``bound`` segments stay idle:
    beyond that the smallest is unlinked.

    Every owned segment is registered with this process's
    ``multiprocessing`` resource tracker, so the tracker unlinks it if
    the process dies without :meth:`close`.  Releases run in garbage
    collection, on whatever thread frees the last array, so the state
    has its own re-entrant lock and the pool's executor lock is never
    taken here.
    """

    def __init__(self, prefix: str, bound: int):
        #: Names of owned segments start with this.
        self.prefix = prefix
        self.bound = bound
        self._lock = threading.RLock()
        self._names = itertools.count()
        self._owned: dict[str, int] = {}
        self._idle: list[Lease] = []
        self._out: set[str] = set()
        self._stranded: list[tuple[int, Lease]] = []
        self._reaped = 0
        self._closed = False

    def lease(self) -> Lease | None:
        """Take the largest idle segment out, if there is one."""
        with self._lock:
            if not self._idle:
                return None
            lease = max(self._idle, key=lambda idle: idle.size)
            self._idle.remove(lease)
            self._out.add(lease.name)
            return lease

    def release(self, lease: Lease | None) -> None:
        """Make ``lease`` idle again (unlinked when the bound is full,
        or after :meth:`close`)."""
        if lease is None:
            return
        with self._lock:
            self._out.discard(lease.name)
            if lease.name not in self._owned:
                return  # unlinked by close()
            drop = lease
            if not self._closed:
                self._idle.append(lease)
                if len(self._idle) <= self.bound:
                    return
                drop = min(self._idle, key=lambda idle: idle.size)
                self._idle.remove(drop)
            del self._owned[drop.name]
        _unlink_tracked(drop.name)

    def strand(self, lease: Lease | None, generation: int) -> None:
        """Release ``lease`` of a batch whose worker crashed or timed
        out, once the workers of its executor ``generation`` are joined
        (:meth:`reaped`): until then a worker may still write into it."""
        if lease is None:
            return
        with self._lock:
            if generation >= self._reaped and not self._closed:
                self._out.discard(lease.name)
                self._stranded.append((generation, lease))
                return
        self.release(lease)

    def reaped(self, generations: int) -> None:
        """No worker of an executor generation below ``generations`` is
        alive: release the leases stranded on them."""
        with self._lock:
            self._reaped = max(self._reaped, generations)
            ready = [lease for g, lease in self._stranded if g < self._reaped]
            self._stranded = [
                (g, lease) for g, lease in self._stranded if g >= self._reaped
            ]
        for lease in ready:
            self.release(lease)

    def receive(self, parcel: Parcel, lease: Lease | None) -> list[Any]:
        """Service side of a batch that had ``lease``: map the parcel's
        segment without unlinking it, and rebuild each block buffer as a
        view of the mapping.

        Raises :class:`SegmentLost` when a fresh segment is gone.
        """
        if lease is not None and parcel.segment != lease.name:
            self.release(lease)  # unused: too small, or a pickled batch
            lease = None
        if parcel.segment is None:
            return parcel.results
        name = parcel.segment if lease is not None else self._adopt(parcel.segment)
        mapping = _map(name)
        with self._lock:
            self._out.discard(name)
            keep = not self._closed
            if keep:
                self._owned[name] = len(mapping)
            else:
                self._owned.pop(name, None)
        if keep:
            weakref.finalize(
                mapping, self.release, Lease(name, len(mapping))
            ).atexit = False
        else:
            _unlink_tracked(name)
        return _rebuild(parcel, mapping)

    def _adopt(self, segment: str) -> str:
        """Rename a worker's fresh segment into the pool's name family
        and register it with the resource tracker."""
        name = f"{self.prefix}{next(self._names)}"
        try:
            os.rename(f"{SHM_DIR}/{segment}", f"{SHM_DIR}/{name}")
        except FileNotFoundError as exc:
            raise SegmentLost(segment) from exc  # a recycle swept it
        resource_tracker.register(f"/{name}", "shared_memory")
        return name

    def idle_bytes(self) -> int:
        with self._lock:
            return sum(lease.size for lease in self._idle)

    def close(self) -> None:
        """Unlink every owned segment not leased to a running batch;
        those are unlinked when they come back."""
        with self._lock:
            self._closed = True
            names = [name for name in self._owned if name not in self._out]
            for name in names:
                del self._owned[name]
            self._idle.clear()
            self._stranded.clear()
        for name in names:
            _unlink_tracked(name)


def sweep(prefix: str, generations: int) -> list[str]:
    """Unlink the segments ``<prefix><g>-*`` with ``g < generations``.

    Called once no worker of those generations can still write one.
    Returns the names removed.
    """
    if not os.path.isdir(SHM_DIR):
        return []
    removed = []
    for name in os.listdir(SHM_DIR):
        if not name.startswith(prefix):
            continue
        generation = name[len(prefix):].split("-", 1)[0]
        if not (generation.isdigit() and int(generation) < generations):
            continue
        # Attach-then-unlink registers and unregisters the name with the
        # resource tracker: balanced whether or not the dead worker had
        # already unregistered it.
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        try:
            shm.unlink()
        finally:
            shm.close()
        removed.append(name)
    return removed
