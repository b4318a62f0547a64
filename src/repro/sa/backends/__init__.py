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
  means the usable cores): ``jobs`` forked worker processes that
  inherit the plan and anneal the caller's coefficients, each driven
  over its own socket pair with length-prefixed frames, heartbeats
  from the anneal loop and bounded deterministic retries
  (:mod:`repro.sa.transport`).  When the pool drains, or the platform
  cannot fork (with a ``RuntimeWarning``), the restarts still owed run
  in the driver through the serial backend's own loop.

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
from repro.sa.backends.serial import SerialBackend


def _process_backend_factory():
    # Imported lazily: the transport imports the serial backend from
    # this package, so a top-level import would be circular.
    from repro.sa.transport.socket_backend import SocketTransportBackend

    return SocketTransportBackend()


register_backend(SerialBackend.name, SerialBackend)
register_backend("process", _process_backend_factory)

__all__ = [
    "BackendRun",
    "ExecutionBackend",
    "PortfolioPlan",
    "RestartOutcome",
    "RestartTask",
    "SerialBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "restart_options",
    "run_restart",
]
