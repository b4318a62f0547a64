"""The socket transport of the restart portfolio's ``"process"`` backend.

Each worker is a fork of the driver, connected to it by a socket pair,
and anneals the plan it inherited; the frames carry only which restart
to run and the finished restart's outcome:

* :mod:`~repro.sa.transport.protocol` — length-prefixed JSON frames
  over a stream socket;
* :mod:`~repro.sa.transport.socket_backend` — the ``"process"``
  execution backend: a driver that forks ``jobs`` worker processes
  (:mod:`repro.sa.worker`), monitors their liveness via heartbeats,
  requeues restarts lost to dead/stalled workers (bounded retries,
  deterministic exponential backoff), and runs the restarts still owed
  through the serial backend's loop when the worker pool drains or the
  platform cannot fork;
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
from repro.sa.transport.protocol import Endpoint
from repro.sa.transport.socket_backend import SocketTransportBackend

__all__ = [
    "Endpoint",
    "Fault",
    "FaultPlan",
    "FaultyEndpoint",
    "SocketTransportBackend",
]
