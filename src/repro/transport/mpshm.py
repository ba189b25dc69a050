"""``mp-shm`` backend — one OS process per rank, shared-memory buffers.

Rank-to-rank wiring is a full mesh of duplex ``multiprocessing.Pipe``
pairs created in the parent before the fork.  Small payloads and all
control frames travel pickled through the pipes; NumPy buffers at or
above :data:`SHM_MIN_BYTES` move out-of-band through POSIX shared
memory — the sender creates a segment, copies once, and ships only the
``(name, shape, dtype)`` descriptor; the receiver copies out, closes,
and unlinks.

Shared-memory lifecycle: the *creating* side immediately unregisters
the segment from the ``multiprocessing`` resource tracker (the tracker
would otherwise unlink it when the sender exits, racing the receiver);
ownership transfers with the descriptor and the receiving reader thread
always unlinks — even for messages that arrive after an abort.  The one
leak window is a receiver that dies hard between segment creation and
frame delivery; ``docs/transport.md`` documents the cleanup story.
"""

from __future__ import annotations

import numpy as np

from .base import register_backend
from .process import ChannelSet, ProcessWorld, untrack_segment

__all__ = ["MpShmTransport", "SHM_MIN_BYTES"]

#: Buffers at least this large take the shared-memory path; below it the
#: pickle-through-pipe cost is lower than two segment syscalls.
SHM_MIN_BYTES = 1 << 16


class _PipeChannelSet(ChannelSet):
    """Mesh of pipe connections, with the shared-memory bulk path."""

    def __init__(self, rank: int, size: int, peers: dict[int, object]):
        super().__init__(rank, size)
        self._peers = peers

    def _send_obj(self, peer: int, frame: tuple) -> None:
        self._peers[peer].send(frame)

    def _recv_obj(self, peer: int) -> tuple:
        return self._peers[peer].recv()

    def _close_peer(self, peer: int) -> None:
        self._peers[peer].close()

    def send_buffer_frame(self, peer: int, source: int, tag: int, buf: np.ndarray) -> None:
        if buf.nbytes < SHM_MIN_BYTES:
            self.send_frame(peer, ("msg", source, tag, buf))
            return
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=buf.nbytes)
        untrack_segment(shm.name)
        try:
            np.ndarray(buf.shape, dtype=buf.dtype, buffer=shm.buf)[...] = buf
            self.send_frame(
                peer, ("buf", source, tag, (shm.name, buf.shape, buf.dtype.str))
            )
        finally:
            shm.close()

    def _decode_buffer(self, descriptor: tuple) -> np.ndarray:
        from multiprocessing import shared_memory

        name, shape, dtype = descriptor
        shm = shared_memory.SharedMemory(name=name)
        try:
            return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf).copy()
        finally:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink race
                pass


class MpShmTransport(ProcessWorld):
    """Process-per-rank world over pipes + POSIX shared memory."""

    name = "mp-shm"

    def _make_endpoints(self) -> dict[tuple[int, int], tuple]:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        return {
            (i, j): ctx.Pipe(duplex=True)
            for i in range(self.size)
            for j in range(i + 1, self.size)
        }

    def _child_channels(self, rank: int, endpoints: dict) -> _PipeChannelSet:
        peers: dict[int, object] = {}
        for (i, j), (end_i, end_j) in endpoints.items():
            if rank == i:
                peers[j] = end_i
                end_j.close()
            elif rank == j:
                peers[i] = end_j
                end_i.close()
            else:
                # A copy held by a third rank would keep the pipe open
                # past its owners' deaths and mask crashes from readers.
                end_i.close()
                end_j.close()
        return _PipeChannelSet(rank, self.size, peers)

    def _parent_release_endpoints(self, endpoints: dict) -> None:
        for end_i, end_j in endpoints.values():
            end_i.close()
            end_j.close()


register_backend(MpShmTransport.name, MpShmTransport)
