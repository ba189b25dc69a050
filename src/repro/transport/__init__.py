"""Multi-process transport for the Alg. 3 fleets and parallel chains.

Two backends (see :mod:`repro.transport.base` for the shared contract):

* ``threads`` — :class:`repro.transport.threads.SimMPI`, thread-per-rank
  in this process (the default, and the Alg. 3 reproduction);
* ``mp-shm`` — :class:`repro.transport.mpshm.MpShmTransport`, one forked
  OS process per rank, pickled objects over pipes, large NumPy buffers
  via ``multiprocessing.shared_memory``.

``create_world(size)`` honours the ``REPRO_TRANSPORT`` environment
variable; telemetry span contexts propagate across process boundaries
via ``inject``/``activate_remote`` so traces stitch on either backend.
"""

import os

from .base import (
    ANY_SOURCE,
    ANY_TAG,
    TRANSPORT_ENV,
    BaseCommunicator,
    CommStats,
    RankError,
    Transport,
    TransportTimeoutError,
)
from .mpshm import MpShmTransport
from .threads import SimMPI, ThreadsCommunicator

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BACKENDS",
    "TRANSPORT_ENV",
    "BaseCommunicator",
    "CommStats",
    "RankError",
    "Transport",
    "TransportTimeoutError",
    "create_world",
    "SimMPI",
    "ThreadsCommunicator",
]

#: The worlds :func:`create_world` can start, by backend name.
BACKENDS: dict[str, type[Transport]] = {
    SimMPI.name: SimMPI,
    MpShmTransport.name: MpShmTransport,
}


def create_world(size: int, backend: str | None = None) -> Transport:
    """A world of ``size`` ranks on ``backend`` (default: the
    ``REPRO_TRANSPORT`` environment variable, else ``threads``)."""
    name = backend or os.environ.get(TRANSPORT_ENV) or SimMPI.name
    cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown transport backend {name!r}; available: {', '.join(BACKENDS)}"
        )
    return cls(size)
