"""Pluggable execution backends for the SA restart portfolio.

The portfolio (:mod:`repro.sa.portfolio`) separates *what* to run — a
list of ``(restart_index, seed)`` tasks over shipped coefficients —
from *how* to run it.  Backends implement the
:class:`~repro.sa.backends.base.ExecutionBackend` protocol and register
under a name selectable via ``SaOptions(backend=...)``:

* ``"serial"`` — sequential in the calling process (the default when
  the portfolio has one worker slot); the reference semantics
  everything else is pinned to;
* ``"process"`` — the default for more than one slot (an unset ``jobs``
  means the usable cores): forked worker processes that inherit the
  plan and anneal the caller's coefficients, each driven over its own
  socket pair with length-prefixed frames, heartbeat liveness
  monitoring, bounded deterministic retries and graceful degradation to
  in-driver execution through JSON task envelopes
  (:mod:`repro.sa.backends.envelope`, :mod:`repro.sa.transport`); where
  the platform cannot fork, it runs in-driver with a ``RuntimeWarning``.

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
from repro.sa.backends.envelope import (
    QueueWorker,
    decode_restart_result,
    decode_restart_task,
    encode_restart_result,
    encode_restart_task,
)
from repro.sa.backends.serial import SerialBackend


def _process_backend_factory():
    # Imported lazily: the transport package imports this module (for
    # the envelope codec), so a top-level import would be circular.
    from repro.sa.transport.socket_backend import SocketTransportBackend

    return SocketTransportBackend()


register_backend(SerialBackend.name, SerialBackend)
register_backend("process", _process_backend_factory)

__all__ = [
    "BackendRun",
    "ExecutionBackend",
    "PortfolioPlan",
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
