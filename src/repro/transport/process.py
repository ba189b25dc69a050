"""Shared machinery for the multi-process transport backends.

Both ``mp-shm`` and ``sockets`` run one forked OS process per rank and
differ only in how rank-to-rank payloads move; everything else lives
here:

* :class:`ChannelSet` — a rank's connections to its peers, with one
  daemon *reader thread* per peer draining frames into the rank's
  :class:`~repro.transport.base._Mailbox` (so a full OS pipe can never
  deadlock two ranks sending to each other);
* :class:`ProcessCommunicator` — the :class:`BaseCommunicator`
  primitives on top of a ChannelSet;
* :class:`ProcessWorld` — fork, supervise, and tear down the rank
  processes: every rank ships its partial :class:`CommStats` and its
  drained telemetry spans back over a result pipe, the parent merges
  stats from *all* ranks (also on failure, so :class:`RankError.stats`
  reflects the whole exchange) and feeds the spans into the global
  collector so cross-process traces stitch.

Failure semantics mirror the threads backend: a rank that raises
broadcasts an ``abort`` frame to every peer before saying ``bye``; a
rank that dies hard (SIGKILL) closes its connections, which its peers'
readers observe as EOF — either way blocked receives fail fast with
``_Aborted`` instead of hanging until the join timeout.

Processes are started with the ``fork`` method, so rank functions and
their arguments are inherited by reference and need not be picklable —
only *results* cross the result pipe.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Any, Callable

import numpy as np

from ..telemetry import runtime as _telemetry
from .base import (
    BaseCommunicator,
    CommStats,
    RankError,
    Transport,
    TransportTimeoutError,
    _Aborted,
    _Mailbox,
)

__all__ = ["ChannelSet", "ProcessCommunicator", "ProcessWorld", "untrack_segment"]


def untrack_segment(name: str) -> None:
    """Hand a shared-memory segment this process created to its reader.

    Unregisters ``name`` from the ``multiprocessing`` resource tracker,
    which would otherwise unlink it when the creating process exits,
    racing the process that reads it; the reader then owns the unlink.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}" if not name.startswith("/") else name,
                                    "shared_memory")
    except (ImportError, AttributeError, KeyError, ValueError, OSError):
        # Tracker internals vary across Python versions; an unknown
        # segment name or a missing API is fine — the reader's explicit
        # unlink owns the lifecycle.
        pass


class ChannelSet:
    """A rank's duplex channels to every peer, plus their reader threads.

    Subclasses implement ``_send_obj``/``_recv_obj``/``_close_peer`` for
    their wire (pipe connections or TCP sockets) and may override
    :meth:`send_buffer_frame` for a faster bulk path (shared memory).

    Frames on the wire are tuples:

    * ``("msg", source, tag, payload)`` — an object message;
    * ``("buf", source, tag, descriptor)`` — a buffer whose bytes moved
      out-of-band (backend decodes the descriptor);
    * ``("abort", reason)`` — sender's rank failed; abort the mailbox;
    * ``("bye", source)`` — clean shutdown of this direction.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self._send_locks = {r: threading.Lock() for r in range(size) if r != rank}
        self._threads: list[threading.Thread] = []

    # -- wire primitives (backend-specific) --------------------------------
    def _send_obj(self, peer: int, frame: tuple) -> None:
        raise NotImplementedError

    def _recv_obj(self, peer: int) -> tuple:
        raise NotImplementedError

    def _close_peer(self, peer: int) -> None:
        raise NotImplementedError

    def _decode_buffer(self, descriptor: Any) -> np.ndarray:
        raise NotImplementedError

    # -- frame API ---------------------------------------------------------
    def send_frame(self, peer: int, frame: tuple) -> None:
        with self._send_locks[peer]:
            self._send_obj(peer, frame)

    def send_buffer_frame(self, peer: int, source: int, tag: int, buf: np.ndarray) -> None:
        self.send_frame(peer, ("msg", source, tag, buf))

    def broadcast_abort(self, reason: str) -> None:
        for peer in self._send_locks:
            try:
                self.send_frame(peer, ("abort", reason))
            except (OSError, ValueError, EOFError):
                # The peer may already be gone (closed pipe / dead
                # socket); anything else is a real bug and propagates.
                pass

    def say_bye(self) -> None:
        for peer in self._send_locks:
            try:
                self.send_frame(peer, ("bye", self.rank))
            except (OSError, ValueError, EOFError):
                # Peer already gone; see broadcast_abort.
                pass

    # -- readers -----------------------------------------------------------
    def start_readers(self, mailbox: _Mailbox) -> None:
        for peer in self._send_locks:
            t = threading.Thread(
                target=self._reader,
                args=(peer, mailbox),
                name=f"transport-r{self.rank}-from{peer}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _reader(self, peer: int, mailbox: _Mailbox) -> None:
        try:
            while True:
                frame = self._recv_obj(peer)
                kind = frame[0]
                if kind == "msg":
                    mailbox.put(frame[1], frame[2], frame[3])
                elif kind == "buf":
                    mailbox.put(frame[1], frame[2], self._decode_buffer(frame[3]))
                elif kind == "abort":
                    mailbox.abort(frame[1])
                elif kind == "bye":
                    return
        except (EOFError, OSError, pickle.UnpicklingError):
            # A hard-killed peer never says bye: its end of the channel
            # just closes.  Propagate as an abort so blocked receives on
            # this rank fail fast (real MPI tears the whole job down).
            mailbox.abort(f"lost connection to rank {peer}")

    def close(self) -> None:
        for peer in self._send_locks:
            try:
                self._close_peer(peer)
            except (OSError, ValueError, EOFError):
                # Best-effort teardown of an already-broken channel.
                pass


class ProcessCommunicator(BaseCommunicator):
    """One rank's endpoint inside its own OS process."""

    def __init__(
        self,
        rank: int,
        size: int,
        stats: CommStats,
        channels: ChannelSet,
        mailbox: _Mailbox,
    ):
        super().__init__(rank, size, stats)
        self._channels = channels
        self._mailbox = mailbox

    def _send_raw(self, obj: Any, dest: int, tag: int) -> None:
        self._check_rank(dest)
        if dest == self._rank:
            if isinstance(obj, np.ndarray):
                obj = obj.copy()
            self._mailbox.put(self._rank, tag, obj)
            return
        self._channels.send_frame(dest, ("msg", self._rank, tag, obj))

    def _recv_raw(
        self, source: int, tag: int, timeout: float | None
    ) -> tuple[int, int, Any]:
        return self._mailbox.get(source, tag, timeout)

    def _send_buffer(self, buf: np.ndarray, dest: int, tag: int) -> None:
        self._check_rank(dest)
        if dest == self._rank:
            self._mailbox.put(self._rank, tag, buf.copy())
            return
        self._channels.send_buffer_frame(dest, self._rank, tag, buf)


def _picklable(exc: BaseException) -> BaseException:
    """Exceptions cross the result pipe; fall back to repr if they can't."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class ProcessWorld(Transport):
    """Fork one process per rank, supervise, merge stats and spans.

    Backend hooks:

    * ``_make_endpoints()`` — parent-side wiring (pipes / listeners),
      created before the fork so children inherit it;
    * ``_child_channels(rank, endpoints)`` — build this rank's
      :class:`ChannelSet` in the child (closing inherited ends that
      belong to other ranks, so peer death is observable as EOF);
    * ``_parent_release_endpoints(endpoints)`` — drop the parent's
      copies after the fork (same reason).
    """

    #: join grace after the result pipes close, before SIGTERM.
    _JOIN_GRACE = 10.0

    def _make_endpoints(self) -> Any:
        raise NotImplementedError

    def _child_channels(self, rank: int, endpoints: Any) -> ChannelSet:
        raise NotImplementedError

    def _parent_release_endpoints(self, endpoints: Any) -> None:
        raise NotImplementedError

    # -- child side --------------------------------------------------------
    def _child_main(
        self,
        rank: int,
        endpoints: Any,
        result_pipes: list[tuple[Any, Any]],
        carrier: dict | None,
        main: Callable[..., Any],
        args: tuple,
    ) -> None:
        # Prune inherited result-pipe ends that belong to other ranks —
        # a copy held here would mask a sibling's death from the parent.
        for r, (recv_end, send_end) in enumerate(result_pipes):
            recv_end.close()
            if r != rank:
                send_end.close()
        result_conn = result_pipes[rank][1]
        if carrier is None:
            # No trace to stitch into: silence the telemetry state this
            # process inherited over fork so child spans/metrics are not
            # recorded into collectors nobody will ever read.  CommStats
            # tallies still ship over the result pipe and are mirrored
            # into the parent's registry at merge time.
            _telemetry.disable()
        stats = CommStats()
        mailbox = _Mailbox()
        channels = self._child_channels(rank, endpoints)
        channels.start_readers(mailbox)
        comm = ProcessCommunicator(rank, self.size, stats, channels, mailbox)
        spans: list[dict] = []
        with _telemetry.activate_remote(carrier) as local:
            try:
                with _telemetry.span(
                    "transport.rank", rank=rank, size=self.size, backend=self.name
                ):
                    value = main(comm, *args)
                outcome: tuple = ("result", value)
            except _Aborted as exc:
                outcome = ("aborted", str(exc))
            # repro: ignore[RPR008]: not a swallow — the exception ships
            # over the result pipe and the parent re-raises it in run().
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                channels.broadcast_abort(f"rank {rank} failed: {exc!r}")
                outcome = ("error", _picklable(exc))
        if local is not None:
            spans = local.drain()
        channels.say_bye()
        try:
            result_conn.send(("stats", stats.messages, stats.bytes))
            if spans:
                result_conn.send(("spans", spans))
            result_conn.send(outcome)
        except Exception as exc:  # noqa: BLE001 - e.g. unpicklable result
            try:
                result_conn.send(
                    ("error", RuntimeError(f"rank {rank} result not shippable: {exc}"))
                )
            except (OSError, ValueError, EOFError):
                # The parent itself is gone; nobody is left to tell.
                pass
        result_conn.close()
        channels.close()

    # -- parent side -------------------------------------------------------
    def run(
        self,
        main: Callable[..., Any],
        *args: Any,
        timeout: float | None = 300.0,
    ) -> list[Any]:
        ctx = mp.get_context("fork")
        with _telemetry.span(
            "transport.world", backend=self.name, size=self.size
        ):
            carrier = _telemetry.inject()
            endpoints = self._make_endpoints()
            result_pipes = [ctx.Pipe(duplex=False) for _ in range(self.size)]
            procs = [
                ctx.Process(
                    target=self._child_main,
                    args=(rank, endpoints, result_pipes, carrier, main, args),
                    name=f"{self.name}-rank-{rank}",
                )
                for rank in range(self.size)
            ]
            for p in procs:
                p.start()
            # Parent must not hold channel or write ends: a dangling
            # copy would defeat EOF-based crash detection.
            self._parent_release_endpoints(endpoints)
            for _, send_end in result_pipes:
                send_end.close()
            try:
                return self._collect(procs, result_pipes, timeout)
            finally:
                for p in procs:
                    if p.is_alive():  # pragma: no cover - only on error paths
                        p.terminate()
                for p in procs:
                    p.join(timeout=self._JOIN_GRACE)

    def _collect(
        self,
        procs: list,
        result_pipes: list[tuple[Any, Any]],
        timeout: float | None,
    ) -> list[Any]:
        size = self.size
        results: list[Any] = [None] * size
        errors: list[BaseException | None] = [None] * size
        got_outcome = [False] * size
        rank_stats: dict[int, tuple[dict, dict]] = {}
        all_spans: list[dict] = []
        conn_rank = {result_pipes[r][0]: r for r in range(size)}
        pending = set(conn_rank)
        deadline = None if timeout is None else time.monotonic() + timeout

        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                ready: list = []
            else:
                ready = mp_connection.wait(list(pending), timeout=remaining)
            if not ready:
                stuck = sorted(conn_rank[c] for c in pending)
                for p in procs:
                    if p.is_alive():
                        p.terminate()
                self._merge(rank_stats, all_spans)
                raise TransportTimeoutError(
                    f"ranks {stuck} did not finish within {timeout}s (deadlock?)"
                )
            for conn in ready:
                rank = conn_rank[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    pending.discard(conn)
                    continue
                kind = msg[0]
                if kind == "stats":
                    rank_stats[rank] = (msg[1], msg[2])
                elif kind == "spans":
                    all_spans.extend(msg[1])
                elif kind == "result":
                    results[rank] = msg[1]
                    got_outcome[rank] = True
                    pending.discard(conn)
                elif kind == "error":
                    errors[rank] = msg[1]
                    got_outcome[rank] = True
                    pending.discard(conn)
                elif kind == "aborted":
                    errors[rank] = _Aborted(msg[1])
                    got_outcome[rank] = True
                    pending.discard(conn)

        grace = self._JOIN_GRACE if timeout is None else min(self._JOIN_GRACE, timeout)
        for rank, p in enumerate(procs):
            p.join(timeout=grace)
            if p.is_alive():  # pragma: no cover - result arrived, exit hangs
                p.terminate()
                p.join(timeout=grace)
            if not got_outcome[rank]:
                code = p.exitcode
                if code in (None, 0):
                    errors[rank] = RuntimeError(
                        f"rank {rank} exited without reporting a result"
                    )
                else:
                    errors[rank] = RuntimeError(
                        f"rank {rank} process died with exit code {code}"
                    )

        self._merge(rank_stats, all_spans)

        primary = [
            (rank, exc)
            for rank, exc in enumerate(errors)
            if exc is not None and not isinstance(exc, _Aborted)
        ]
        secondary = [
            (rank, exc) for rank, exc in enumerate(errors) if exc is not None
        ]
        if primary:
            rank, exc = primary[0]
            raise RankError(rank, exc, stats=self.stats) from exc
        if secondary:  # pragma: no cover - all failures were secondary
            rank, exc = secondary[0]
            raise RankError(rank, exc, stats=self.stats) from exc
        return results

    def _merge(
        self, rank_stats: dict[int, tuple[dict, dict]], spans: list[dict]
    ) -> None:
        """Fold every rank's shipped tallies and spans into this world."""
        for messages, nbytes in rank_stats.values():
            self.stats.merge_counts(messages, nbytes)
        if spans and _telemetry.enabled():
            _telemetry.collector().add_many(spans)


# Re-export for backends and tests that need the fork guard.
def fork_available() -> bool:
    return "fork" in mp.get_all_start_methods() and os.name == "posix"
