"""The socket transport of the multi-box restart portfolio.

:mod:`repro.sa.backends.queue` defines the wire format — versioned JSON
task/result envelopes that are pure functions of ``(restart, seed,
single-run options, instance, parameters)`` — and this package carries
those envelopes over a real transport:

* :mod:`~repro.sa.transport.protocol` — length-prefixed JSON frames
  over a TCP socket, with protocol/envelope version negotiation at
  connect;
* :mod:`~repro.sa.transport.socket_backend` — the ``"socket"``
  execution backend: a driver that spawns (or accepts) remote
  ``python -m repro.sa.worker`` processes, monitors their liveness via
  heartbeats, requeues restarts lost to dead/stalled workers (bounded
  retries, deterministic exponential backoff), and degrades to
  in-driver execution when the worker pool drains (``workers=0`` asks
  for that in-driver loop from the start);
* :mod:`~repro.sa.transport.faults` — a deterministic, seedable
  :class:`FaultPlan` (drop / delay / duplicate / corrupt frames, kill a
  worker mid-restart, stall its heartbeat) injected at the protocol
  layer, so the test suite can *prove* that every fault class yields a
  result bitwise-identical to the serial backend per master seed.

Whatever the faults, the returned best is bitwise identical to
:class:`~repro.sa.backends.serial.SerialBackend` for the same master
seed — task envelopes are pure functions, results are deduplicated by
restart index, and lost restarts are retried (never dropped).
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
