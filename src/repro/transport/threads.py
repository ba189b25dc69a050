"""``threads`` backend — the original SimMPI thread-per-rank runtime.

Rank functions run on real threads inside one process; NumPy's BLAS
releases the GIL, so ranks genuinely overlap on the linear algebra.
Message payloads live in shared memory trivially (one address space):
object sends decouple NumPy arrays by copy, everything else is passed
by reference (ranks must not mutate received objects they also keep).

This backend is the default and the conformance baseline: collectives,
tallies, and failure semantics are inherited from
:class:`~repro.transport.base.BaseCommunicator`/
:class:`~repro.transport.base.Transport`, so the ``mp-shm`` backend can
be checked against it operation for operation.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

import numpy as np

from ..telemetry import runtime as _telemetry
from ..telemetry.context import current_context, use_context
from .base import (
    BaseCommunicator,
    RankError,
    Transport,
    TransportTimeoutError,
    _Aborted,
    _Mailbox,
)

__all__ = ["SimMPI", "ThreadsCommunicator"]


class ThreadsCommunicator(BaseCommunicator):
    """One rank's endpoint: mailbox delivery within the process."""

    def __init__(self, rank: int, world: "SimMPI"):
        super().__init__(rank, world.size, world.stats)
        self._world = world

    def _send_raw(self, obj: Any, dest: int, tag: int) -> None:
        self._check_rank(dest)
        if isinstance(obj, np.ndarray):
            obj = obj.copy()
        self._world._mailboxes[dest].put(self._rank, tag, obj)

    def _recv_raw(
        self, source: int, tag: int, timeout: float | None
    ) -> tuple[int, int, Any]:
        return self._world._mailboxes[self._rank].get(source, tag, timeout)

    def _send_buffer(self, buf: np.ndarray, dest: int, tag: int) -> None:
        self._check_rank(dest)
        self._world._mailboxes[dest].put(self._rank, tag, buf.copy())


class SimMPI(Transport):
    """Thread-per-rank world (historical name, kept as the public API)."""

    name = "threads"

    def __init__(self, size: int):
        super().__init__(size)
        self._mailboxes = [_Mailbox() for _ in range(size)]

    def run(
        self,
        main: Callable[..., Any],
        *args: Any,
        timeout: float | None = 300.0,
    ) -> list[Any]:
        """Run ``main(comm, *args)`` on every rank; return per-rank results.

        Raises :class:`RankError` (for the lowest failing rank) if any
        rank raises; surviving ranks are joined first.  On timeout every
        mailbox is aborted before :class:`TransportTimeoutError` is
        raised, so ranks blocked in a receive exit instead of keeping
        the process alive.
        """
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size
        # Rank threads inherit the launching thread's span context so
        # every per-rank span lands in the caller's trace.
        parent_ctx = current_context()

        def runner(rank: int) -> None:
            comm = ThreadsCommunicator(rank, self)
            try:
                with use_context(parent_ctx), _telemetry.span(
                    "simmpi.rank", rank=rank, size=self.size
                ):
                    results[rank] = main(comm, *args)
            except _Aborted as exc:
                # Secondary failure: this rank was blocked on a message
                # from a rank that already died; not the root cause.
                errors[rank] = exc
            # repro: ignore[RPR008]: not a swallow — stored in errors[]
            # and re-raised to the caller after the join below.
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors[rank] = exc
                # Tear the job down like a real MPI abort: wake every
                # peer blocked in a receive so the run fails fast.
                for box in self._mailboxes:
                    box.abort(f"rank {rank} failed: {exc!r}")

        threads = [
            threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}")
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in threads:
            t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                for box in self._mailboxes:
                    box.abort(f"{t.name} timed out")
                raise TransportTimeoutError(
                    f"{t.name} did not finish within {timeout}s (deadlock?)"
                )
        # Report the root cause: prefer a non-_Aborted failure.  The
        # world's stats object is shared by every rank thread, so the
        # attached partial tallies already merge all ranks' traffic.
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
        if secondary:  # pragma: no cover - only if abort raced oddly
            rank, exc = secondary[0]
            raise RankError(rank, exc, stats=self.stats) from exc
        return results
