"""The socket transport of the restart portfolio's ``"process"`` backend.

Each worker is a fork of the driver, connected to it by a socket pair,
and anneals the plan it inherited; the frames carry only which restart
to run, heartbeats from the anneal loop, and the finished restart's
outcome:

* :mod:`~repro.sa.transport.protocol` — length-prefixed JSON frames
  over a stream socket;
* :mod:`~repro.sa.transport.socket_backend` — the ``"process"``
  execution backend: a driver that forks ``jobs`` worker processes
  (:mod:`repro.sa.worker`), writes off a worker that dies or goes
  silent with a restart in flight, requeues that restart (bounded
  retries, deterministic exponential backoff), and runs the restarts
  still owed through the serial backend's loop when the worker pool
  drains or the platform cannot fork;
* :mod:`~repro.sa.transport.faults` — a deterministic, seedable
  :class:`FaultPlan` of the two failures a forked worker can suffer
  (it dies, or its main thread blocks), fired inside the workers, so
  the test suite can *prove* that each yields a result
  bitwise-identical to the serial backend per master seed.

Whatever the faults, the returned best is bitwise identical to
:class:`~repro.sa.backends.serial.SerialBackend` for the same master
seed — a restart's outcome is a pure function of the plan and its
index, and lost restarts are retried (never dropped).
Pinned by ``tests/test_transport.py``.
"""

from repro.sa.transport.faults import Fault, FaultPlan
from repro.sa.transport.protocol import Endpoint
from repro.sa.transport.socket_backend import SocketTransportBackend

__all__ = [
    "Endpoint",
    "Fault",
    "FaultPlan",
    "SocketTransportBackend",
]
