"""Result handoff across the worker-pool boundary through shared memory.

A COLUMNS result at paper scale is 41 MB.  Pickled through the pool's
result pipe it is serialised in the worker, written and read through
the pipe, and rebuilt in the service process.  Instead, the worker
copies every result's block buffer (:attr:`JobResult.blocks.data
<repro.core.patterns.BlockArray.data>`) into one POSIX shared-memory
segment and returns a :class:`Parcel`: the results with empty buffers,
the segment name and each buffer's offset.  The service process maps
the segment, unlinks it at once, and rebuilds each buffer as an array
over the mapping, so the mapping is the arrays' base and is unmapped
when the last of them (in the cache, in a caller's hands) is freed.

Segment lifecycle:

* The pool names every segment ``<pool prefix><generation>-<seq>``
  (:func:`pool_prefix` is unique per pool; the generation counts
  executor recycles) and passes the name to the task.
* The worker creates the segment, copies, and hands it over by
  unregistering it from the ``multiprocessing`` resource tracker — the
  mp-shm transport's rule (:func:`repro.transport.process.
  untrack_segment`).  On any exception it unlinks the segment itself.
* The service process maps and unlinks it in :func:`receive`.
* A worker killed between creating and returning a segment leaves it
  behind.  After recycling an executor, and at shutdown, the pool
  calls :func:`sweep`, which removes the pool's segments of the dead
  generations.

Only the pool calls :func:`export` and :func:`receive`: pickling a
:class:`~repro.service.job.JobResult` anywhere else copies its buffer
in-band and never creates a segment.  Segments live in ``/dev/shm``;
where that directory does not exist, and for batches under
:data:`MIN_SEGMENT_BYTES`, results travel pickled.
"""

from __future__ import annotations

import contextlib
import copy
import mmap
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from ..core.patterns import BlockArray
from ..transport.process import untrack_segment

__all__ = [
    "MIN_SEGMENT_BYTES", "Parcel", "SEGMENT_ROOT", "SegmentLost", "export",
    "pool_prefix", "receive", "sweep",
]

#: Every pool's segment names start with this.
SEGMENT_ROOT = "repro-result-"
#: Where POSIX shared memory segments appear as files (Linux).
SHM_DIR = "/dev/shm"
#: Buffer offsets in a segment are multiples of this (cache line).
_ALIGN = 64
#: Batches whose buffers total less travel pickled.  On a 2-core host a
#: segment moves a 41 MB result in about 19 ms against 92 ms pickled,
#: yet the serving benchmark's workloads with 0.64-5.1 MB results
#: (DIAGONAL, spectral chunks, FULL_DIAGONAL) served 2-11% more requests
#: per second when their results were pickled (docs/service.md).
MIN_SEGMENT_BYTES = 8 << 20


def pool_prefix() -> str:
    """A segment-name prefix unique to one pool."""
    return f"{SEGMENT_ROOT}{os.getpid():x}-{secrets.token_hex(4)}-"


class SegmentLost(Exception):
    """A parcel's segment was swept before the service process mapped it
    (its executor was recycled meanwhile); the batch must run again."""


@dataclass
class Parcel:
    """What crosses the result pipe: results whose block buffers are
    empty, plus where each buffer lies in the segment (``None`` for
    items that travel as they are)."""

    segment: str | None
    offsets: list[int | None]
    results: list[Any]


def _buffer(item: Any) -> np.ndarray | None:
    blocks = getattr(item, "blocks", None)
    return blocks.data if isinstance(blocks, BlockArray) else None


def _hollow(item: Any) -> Any:
    """A shallow copy of ``item`` whose block buffer is empty (it keeps
    its dtype and block shape, for :func:`receive` to rebuild)."""
    out = copy.copy(item)
    out.blocks = copy.copy(item.blocks)
    out.blocks.data = item.blocks.data[:0]
    return out


def export(results: list[Any], segment: str) -> Parcel:
    """Worker side: move the block buffers of ``results`` into ``segment``."""
    buffers = [_buffer(item) for item in results]
    offsets: list[int | None] = []
    size = 0
    for buf in buffers:
        if buf is None or buf.nbytes == 0:
            offsets.append(None)
            continue
        offsets.append(size)
        size += -(-buf.nbytes // _ALIGN) * _ALIGN
    if size < MIN_SEGMENT_BYTES or not os.path.isdir(SHM_DIR):
        return Parcel(None, [None] * len(results), list(results))
    shm = shared_memory.SharedMemory(name=segment, create=True, size=size)
    try:
        for buf, offset in zip(buffers, offsets):
            if offset is not None:
                # A memoryview copy leaves no export of shm.buf behind
                # to block close() when a later buffer fails.
                raw = memoryview(np.ascontiguousarray(buf)).cast("B")
                shm.buf[offset : offset + raw.nbytes] = raw
        untrack_segment(shm.name)
    except BaseException:
        shm.unlink()
        raise
    finally:
        shm.close()
    hollow = [
        item if offset is None else _hollow(item)
        for item, offset in zip(results, offsets)
    ]
    return Parcel(segment, offsets, hollow)


def receive(parcel: Parcel) -> list[Any]:
    """Service side: map and unlink the parcel's segment, and rebuild
    each block buffer as a view of the mapping.

    Raises :class:`SegmentLost` when the segment is gone.
    """
    if parcel.segment is None:
        return parcel.results
    path = os.path.join(SHM_DIR, parcel.segment)
    try:
        fd = os.open(path, os.O_RDWR)
    except FileNotFoundError as exc:
        raise SegmentLost(parcel.segment) from exc
    try:
        mapping = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
        # A concurrent sweep may have unlinked it since the open.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    for item, offset in zip(parcel.results, parcel.offsets):
        if offset is not None:
            blocks = item.blocks
            shape = (len(blocks),) + blocks.data.shape[1:]
            blocks.data = np.ndarray(shape, blocks.data.dtype, mapping, offset)
    return parcel.results


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
