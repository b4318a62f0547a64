"""Pluggable execution backends for the SA restart portfolio.

The portfolio (:mod:`repro.sa.portfolio`) separates *what* to run — a
list of ``(restart_index, seed)`` tasks over shipped coefficients —
from *how* to run it.  Backends implement the
:class:`~repro.sa.backends.base.ExecutionBackend` protocol and register
under a name selectable via ``SaOptions(backend=...)``:

* ``"serial"`` — sequential in the calling process (default for
  ``jobs=1``); the reference semantics everything else is pinned to;
* ``"process"`` — a ``concurrent.futures`` process pool (default for
  ``jobs>1``), falling back to threads where the platform cannot
  fork/pickle;
* ``"thread"`` — the GIL-bound thread pool, forced;
* ``"socket"`` — restarts serialised as JSON task envelopes (built on
  ``SolveRequest``'s round-trip format, :mod:`repro.sa.backends.queue`)
  over length-prefixed JSON frames on loopback TCP to spawned
  ``python -m repro.sa.worker`` processes, with heartbeat liveness
  monitoring, bounded deterministic retries and graceful degradation to
  in-driver execution (:mod:`repro.sa.transport`); ``workers=0`` runs
  the envelopes through that in-driver loop alone.

Whatever the backend or jobs count, the returned best is bitwise
identical per master seed — backends may only *skip* work (restarts the
deadline cancels), never change results.

User backends register with :func:`register_backend`::

    from repro.sa.backends import register_backend

    register_backend("my-grid", lambda: MyGridBackend(...))
"""

from repro.sa.backends.base import (
    BackendRun,
    ExecutionBackend,
    PortfolioPlan,
    RestartOutcome,
    RestartTask,
    backend_names,
    get_backend,
    register_backend,
    restart_options,
    run_restart,
)
from repro.sa.backends.pool import ProcessPoolBackend
from repro.sa.backends.queue import (
    QueueWorker,
    decode_restart_result,
    decode_restart_task,
    encode_restart_result,
    encode_restart_task,
)
from repro.sa.backends.serial import SerialBackend

def _socket_backend_factory():
    # Imported lazily: the transport package imports this module (for
    # the envelope codec), so a top-level import would be circular.
    from repro.sa.transport.socket_backend import SocketTransportBackend

    return SocketTransportBackend()


register_backend(SerialBackend.name, SerialBackend)
register_backend("process", ProcessPoolBackend)
register_backend("thread", lambda: ProcessPoolBackend(use_threads=True))
register_backend("socket", _socket_backend_factory)

__all__ = [
    "BackendRun",
    "ExecutionBackend",
    "PortfolioPlan",
    "ProcessPoolBackend",
    "QueueWorker",
    "RestartOutcome",
    "RestartTask",
    "SerialBackend",
    "backend_names",
    "decode_restart_result",
    "decode_restart_task",
    "encode_restart_result",
    "encode_restart_task",
    "get_backend",
    "register_backend",
    "restart_options",
    "run_restart",
]
