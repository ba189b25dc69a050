"""Result handoff across the worker-pool boundary through shared memory.

A COLUMNS result at paper scale is 41 MB, a FULL_DIAGONAL one 5.12 MB.
Pickled through the pool's result pipe a result is serialised in the
worker, written and read through the pipe, and rebuilt in the service
process.  Instead, the pool lends each job a POSIX shared-memory
segment sized for its result, and the worker hands the result's block
buffer (:attr:`JobResult.blocks.data
<repro.core.patterns.BlockArray.data>`) back in it: :func:`export`
returns a :class:`Parcel`, the result with an empty buffer and how it
got there.  The service process maps the segment and rebuilds the
buffer as an array over the mapping, so the mapping is the array's
base and is unmapped when the last view of it (in the cache, in a
caller's hands) is freed.

The service process owns every segment: its pool's
:class:`ResultSegments` creates, lends and unlinks them, and a worker
only maps the one it was lent.

* :meth:`ResultSegments.lease` takes the smallest idle segment that
  holds the job's :attr:`~repro.service.job.GreensJob.result_nbytes`
  and is at most twice that size, or creates one, registered with the
  service process's resource tracker.  Every result gets a lease, at
  any size; only where ``/dev/shm`` does not exist do results travel
  pickled.
* The worker installs an :class:`Arena` over the lease as its thread's
  :func:`~repro.core.patterns.result_buffers` provider, so the job's
  first result allocation (:meth:`~repro.core.patterns.
  SelectedInversion.empty`) is a view of the segment: the solve writes
  the result where the service process will read it, and
  :func:`export` copies nothing (``in_place``).  Any other buffer is
  copied into the lease when it fits (``copied``), and otherwise
  travels pickled; :attr:`Parcel.way` says which.
* :meth:`ResultSegments.receive` maps the segment without unlinking
  it; when the last array over the mapping is freed, the segment goes
  back to idle for the next job.
* The lease of a job whose worker crashed or timed out is lent again
  only once that worker is joined (:meth:`ResultSegments.strand`), so
  no dead job can still write into a segment another job holds.

Pickled, a served FULL_DIAGONAL solve took 1.37-1.79x its inline time
on a 2-core host; solved into a lease, 0.97-1.18x (bench_handoff).  The
end-to-end pairs of every workload are in docs/service.md ("No size
floor").

Only the pool calls :func:`export` and receives parcels: pickling a
:class:`~repro.service.job.JobResult` anywhere else copies its buffer
in-band.
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

__all__ = [
    "Arena", "Lease", "POOLED_ROOT", "Parcel",
    "ResultSegments", "WAYS", "export",
]

#: Every pool's result segment names start with this.
POOLED_ROOT = "repro-pooled-"
#: Where POSIX shared memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"
#: An idle segment is lent only to a result at least ``1 / _MAX_SLACK``
#: of its size: a small result never pins a large segment's pages.
_MAX_SLACK = 2
#: Pre-fault a pooled segment's pages when the worker maps it: one
#: populate pass instead of a page fault per 4 KiB during the solve.
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)


@dataclass(frozen=True)
class Lease:
    """A pooled segment lent to one job: its name and size in bytes."""

    name: str
    size: int


#: How a job's result came back (:attr:`Parcel.way`).
WAYS = ("in_place", "copied", "pickled")


@dataclass
class Parcel:
    """What crosses the result pipe: the result, with an empty block
    buffer unless it travels pickled.

    ``way`` says where the buffer is: solved into the job's lease
    (``in_place``), copied into it (``copied``), or in the result as it
    is (``pickled``).  ``export_seconds`` is the worker's time in
    :func:`export`.
    """

    result: Any
    way: str = "pickled"
    export_seconds: float = 0.0


def _buffer(item: Any) -> np.ndarray | None:
    blocks = getattr(item, "blocks", None)
    return blocks.data if isinstance(blocks, BlockArray) else None


def _hollow(item: Any) -> Any:
    """A shallow copy of ``item`` whose block buffer is empty (it keeps
    its dtype and block shape, for the service process to rebuild)."""
    out = copy.copy(item)
    out.blocks = copy.copy(item.blocks)
    data = item.blocks.data
    # A fresh empty array: a ``[:0]`` view would keep the buffer (and a
    # mapping under it) alive until the parcel is collected.
    out.blocks.data = np.empty((0,) + data.shape[1:], data.dtype)
    return out


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


def _copy_in(lease: Lease, buf: np.ndarray) -> bool:
    """Copy ``buf`` to the start of the leased segment; ``False`` when
    it is gone."""
    mapping = _map_lease(lease, buf.nbytes)
    if mapping is None:
        return False
    try:
        # A memoryview copy leaves no export of the mapping behind to
        # block closing it.
        mapping[:] = memoryview(np.ascontiguousarray(buf)).cast("B")
    finally:
        mapping.close()
    return True


class Arena:
    """Worker side: the leased segment as the buffer of the job's first
    result, so the solve writes it where the service process will read
    it.

    A :func:`repro.core.patterns.result_buffers` provider.  The first
    allocation it is offered takes the segment when it fits the lease:
    it gets a view at offset 0 of a ``MAP_SHARED | MAP_POPULATE``
    mapping made only then.
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
        if not 0 < nbytes <= self.lease.size:
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


def export(result: Any, lease: Lease | None = None,
           arena: Arena | None = None) -> Parcel:
    """Worker side: move the block buffer of ``result`` into the
    ``lease``d segment when it fits; a buffer the solve already wrote
    there through ``arena`` stays where it is.  Otherwise the result
    travels pickled.
    """
    t0 = time.perf_counter()
    parcel = _export(result, lease, arena)
    parcel.export_seconds = time.perf_counter() - t0
    return parcel


def _export(result: Any, lease: Lease | None, arena: Arena | None) -> Parcel:
    buf = _buffer(result)
    if lease is None or buf is None or not 0 < buf.nbytes <= lease.size:
        return Parcel(result)
    if arena is not None and arena.holds(buf, 0):
        return Parcel(_hollow(result), "in_place")
    if arena is not None and arena.overlaps(buf):
        buf = buf.copy()  # it lies elsewhere in the lease: out first
    if not _copy_in(lease, buf):
        return Parcel(result)
    return Parcel(_hollow(result), "copied")


def _map(name: str) -> mmap.mmap:
    """Map segment ``name`` whole (service side)."""
    fd = os.open(f"{SHM_DIR}/{name}", os.O_RDWR)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _unlink_tracked(name: str) -> None:
    """Unlink a segment registered with this process's resource tracker."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(f"{SHM_DIR}/{name}")
    resource_tracker.unregister(f"/{name}", "shared_memory")


class ResultSegments:
    """The result segments of one :class:`~repro.service.workers.
    WorkerPool`, and the only code that creates or unlinks them.

    A segment is in one of three states: *idle*, *out* (leased to a job
    that has not come back), or *held* (mapped by the array of a result
    the service handed out).  :meth:`lease` moves out the smallest idle
    segment that fits the result and is at most ``_MAX_SLACK`` times its
    size, or creates one; :meth:`receive` moves it to held; a
    ``weakref.finalize`` on the mapping moves it back to idle when the
    last array over it is freed.  At most ``bound`` segments stay idle:
    beyond that the smallest is unlinked, as the cheapest to create
    again (about 0.5 ms at 0.64 MB against 31 ms at 41 MB, populated).

    Every segment is registered with this process's ``multiprocessing``
    resource tracker when it is created, so the tracker unlinks it if
    the process dies without :meth:`close`.  Releases run in garbage
    collection, on whatever thread frees the last array, so the state
    has its own re-entrant lock and the pool's executor lock is never
    taken here.
    """

    def __init__(self, bound: int):
        #: Names of this pool's segments start with this.
        self.prefix = f"{POOLED_ROOT}{os.getpid():x}-{secrets.token_hex(4)}-"
        self.bound = bound
        #: Segments :meth:`lease` has created, since start.
        self.created = 0
        self._lock = threading.RLock()
        self._names = itertools.count()
        self._owned: set[str] = set()
        self._idle: list[Lease] = []
        self._out: set[str] = set()
        self._held: set[Lease] = set()
        self._stranded: list[tuple[int, Lease]] = []
        self._reaped = 0
        self._closed = False

    def lease(self, nbytes: int) -> Lease | None:
        """Take out the smallest idle segment of ``nbytes`` to
        ``_MAX_SLACK * nbytes``, or create one; ``None`` for an empty
        result, without ``/dev/shm``, or after :meth:`close`."""
        if nbytes < 1 or not os.path.isdir(SHM_DIR):
            return None
        with self._lock:
            if self._closed:
                return None
            fits = [
                idle for idle in self._idle
                if nbytes <= idle.size <= _MAX_SLACK * nbytes
            ]
            if fits:
                lease = min(fits, key=lambda idle: idle.size)
                self._idle.remove(lease)
            else:
                lease = Lease(f"{self.prefix}{next(self._names)}", nbytes)
                # repro: ignore[RPR007]: owned past this call — creating
                # registers it with the resource tracker, and release()
                # or close() unlinks it.
                shared_memory.SharedMemory(
                    lease.name, create=True, size=nbytes
                ).close()
                self._owned.add(lease.name)
                self.created += 1
            self._out.add(lease.name)
            return lease

    def release(self, lease: Lease | None) -> None:
        """Make ``lease`` idle again (unlinked when the bound is full,
        or after :meth:`close`)."""
        if lease is None:
            return
        with self._lock:
            self._out.discard(lease.name)
            self._held.discard(lease)
            if lease.name not in self._owned:
                return  # unlinked by close()
            drop = lease
            if not self._closed:
                self._idle.append(lease)
                if len(self._idle) <= self.bound:
                    return
                drop = min(self._idle, key=lambda idle: idle.size)
                self._idle.remove(drop)
            self._owned.discard(drop.name)
        _unlink_tracked(drop.name)

    def strand(self, lease: Lease | None, generation: int) -> None:
        """Release ``lease`` of a job whose worker crashed or timed out,
        once the workers of its executor ``generation`` are joined
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

    def receive(self, parcel: Parcel, lease: Lease | None) -> Any:
        """Service side of a job that had ``lease``: map the segment
        without unlinking it, and rebuild the result's block buffer as a
        view of the mapping.  A pickled result comes back as it is, and
        its unused lease goes back to idle."""
        if parcel.way == "pickled":
            self.release(lease)
            return parcel.result
        mapping = _map(lease.name)
        with self._lock:
            self._out.discard(lease.name)
            keep = not self._closed
            if keep:
                self._held.add(lease)
            else:
                self._owned.discard(lease.name)
        if keep:
            weakref.finalize(mapping, self.release, lease).atexit = False
        else:
            _unlink_tracked(lease.name)
        blocks = parcel.result.blocks
        shape = (len(blocks),) + blocks.data.shape[1:]
        blocks.data = np.ndarray(shape, blocks.data.dtype, mapping)
        return parcel.result

    def idle_bytes(self) -> int:
        with self._lock:
            return sum(lease.size for lease in self._idle)

    def held_bytes(self) -> int:
        """Bytes of the segments that results handed out still map."""
        with self._lock:
            return sum(lease.size for lease in self._held)

    def close(self) -> None:
        """Unlink every owned segment not leased to a running job; those
        are unlinked when they come back."""
        with self._lock:
            self._closed = True
            names = [name for name in self._owned if name not in self._out]
            self._owned.difference_update(names)
            self._idle.clear()
            self._held.clear()
            self._stranded.clear()
        for name in names:
            _unlink_tracked(name)
