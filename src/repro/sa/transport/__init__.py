"""The socket transport of the restart portfolio's ``"process"`` backend.

Each worker is a fork of the driver, connected to it by a socket pair,
and anneals the plan it inherited; the frames carry only which restart
to run and the finished restart's result envelope
(:mod:`repro.sa.backends.envelope`):

* :mod:`~repro.sa.transport.protocol` — length-prefixed JSON frames
  over a stream socket, with protocol/envelope version negotiation at
  connect;
* :mod:`~repro.sa.transport.socket_backend` — the ``"process"``
  execution backend: a driver that forks worker processes
  (:mod:`repro.sa.worker`), monitors their liveness via heartbeats,
  requeues restarts lost to dead/stalled workers (bounded retries,
  deterministic exponential backoff), and degrades to in-driver
  execution when the worker pool drains or the platform cannot fork
  (``workers=0`` asks for that in-driver loop from the start);
* :mod:`~repro.sa.transport.faults` — a deterministic, seedable
  :class:`FaultPlan` (drop / delay / duplicate / corrupt frames, kill a
  worker mid-restart, stall its heartbeat) injected at the protocol
  layer, so the test suite can *prove* that every fault class yields a
  result bitwise-identical to the serial backend per master seed.

Whatever the faults, the returned best is bitwise identical to
:class:`~repro.sa.backends.serial.SerialBackend` for the same master
seed — a restart's outcome is a pure function of the plan and its
index, results are deduplicated by restart index, and lost restarts are
retried (never dropped).
Pinned by ``tests/test_transport.py``.
"""

from repro.sa.transport.faults import Fault, FaultPlan, FaultyEndpoint
from repro.sa.transport.protocol import (
    Endpoint,
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    negotiate_client,
    negotiate_server,
)
from repro.sa.transport.socket_backend import SocketTransportBackend

__all__ = [
    "Endpoint",
    "Fault",
    "FaultPlan",
    "FaultyEndpoint",
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "SocketTransportBackend",
    "negotiate_client",
    "negotiate_server",
]
