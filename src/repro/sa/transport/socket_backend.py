"""The ``"process"`` execution backend: restarts on forked local workers.

The driver forks ``jobs`` worker processes, each connected to it by its
own ``socket.socketpair()`` made before the fork, so no other process
can reach either end.  A worker (:func:`repro.sa.worker.run_worker`)
inherits the portfolio's plan and anneals the caller's own
coefficients, exactly as the serial backend does: a TASK frame names
only the restart, and the RESULT frame carries the finished restart's
outcome back.  The driver registers each connection as soon as it forks
the worker, and schedules the portfolio's restarts over the connections
with an at-least-once discipline:

* every dispatched TASK frame must be ACKed; a task that is neither
  acknowledged nor resolved within the heartbeat timeout is presumed
  lost and requeued;
* workers heartbeat continuously, carrying the id of the task they are
  running — so when a heartbeat says *idle* after the task was ACKed,
  the terminal RESULT/ERROR frame is known lost (a stream socket
  preserves order and the worker goes idle only after sending it)
  and the restart is requeued without waiting for any timeout;
* a connection that closes (the worker died) or stays silent past
  ``heartbeat_timeout`` is written off: it is closed, its in-flight
  restart requeued, and a replacement worker forked (bounded by a spawn
  budget so a crash loop terminates).  A restart the lost worker never
  acknowledged goes back at no cost to its retry budget: it never ran;
* requeues are bounded per restart by ``max_retries`` and spread out by
  a deterministic exponential backoff
  (:func:`repro.sa.backends.retry.backoff_delay`); an exhausted budget
  fails the whole solve with :class:`~repro.exceptions.SolverError`
  naming the restart — a silently lost restart would change the
  best-of-N result, which the determinism contract forbids;
* when the pool drains to zero with no spawn budget left, the driver
  degrades gracefully: the restarts still owed run in the driver
  through the serial backend's own loop
  (:func:`repro.sa.backends.serial.run_in_process`), so the result is
  still bitwise identical — only slower.  Where the platform cannot
  fork, the whole portfolio runs that way, with a ``RuntimeWarning``.

Duplicate deliveries (retries racing late results, duplicated frames)
are harmless by construction: a restart's outcome is a pure function of
its index and the plan, and the driver keeps the *first* result per
restart index — any second copy is identical anyway.

Determinism: for a fixed master seed the returned best is bitwise
identical to :class:`~repro.sa.backends.serial.SerialBackend` whatever
the fault schedule, worker count, or retry history — pinned across the
whole fault matrix by ``tests/test_transport.py``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import selectors
import signal
import socket
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    ConnectionClosedError,
    OptionsError,
    TransportError,
)
from repro.sa.backends.base import (
    BackendRun,
    PortfolioPlan,
    RestartOutcome,
    RestartTask,
)
from repro.sa.backends.retry import RetryTracker
from repro.sa.backends.serial import run_in_process
from repro.sa.transport.faults import FaultPlan, FaultyEndpoint
from repro.sa.transport.protocol import (
    KIND_ACK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
)


@dataclass
class _Inflight:
    """One dispatched task awaiting its terminal frame."""

    task: RestartTask
    task_id: str
    dispatched: float
    acked: bool = False


@dataclass
class _Connection:
    """Driver-side state of one connected worker."""

    endpoint: Endpoint
    fd: int
    last_seen: float
    inflight: _Inflight | None = None


class SocketTransportBackend:
    """Drive the portfolio over socket pairs to forked worker processes.

    The portfolio's ``jobs`` slots set the number of workers.  ``spawn``
    selects how workers come up: ``"fork"`` forks this process,
    ``"thread"`` runs the same worker loop in daemon threads (fast, for
    tests — the protocol path is identical).  ``fault_plan`` replays a
    deterministic :class:`~repro.sa.transport.faults.FaultPlan` against
    the connections (chaos tests only).
    """

    name = "process"

    def __init__(
        self,
        fault_plan: FaultPlan | None = None,
        spawn: str = "fork",
    ):
        if spawn not in ("fork", "thread"):
            raise OptionsError(
                f"spawn must be 'fork' or 'thread', got {spawn!r}"
            )
        self.fault_plan = fault_plan or FaultPlan()
        self.spawn = spawn

    def run(self, plan: PortfolioPlan) -> BackendRun:
        if self.spawn == "fork" and not hasattr(os, "fork"):
            warnings.warn(
                "SA portfolio running in-driver: this platform cannot "
                "fork worker processes",
                RuntimeWarning,
                stacklevel=3,
            )
            run = BackendRun(outcomes=[], kind=self.name)
            run_in_process(plan, plan.tasks(), run)
            return run
        return _Driver(plan, self).run()


class _Driver:
    """One portfolio execution: scheduler, liveness monitor, fallback."""

    def __init__(self, plan: PortfolioPlan, config: SocketTransportBackend):
        self.plan = plan
        self.options = plan.options
        self.config = config
        self.workers = plan.jobs
        self.tracker = RetryTracker(
            self.options.max_retries,
            backoff_base=self.options.backoff_base,
            label="process worker",
        )
        self.record = BackendRun(outcomes=[], kind=SocketTransportBackend.name)
        self.total = len(plan.seeds)
        #: [task, not-before] dispatch queue (monotonic not-before
        #: implements the retry backoff).
        self.pending: list[list] = [[task, 0.0] for task in plan.tasks()]
        self.done: set[int] = set()
        self.connections: dict[int, _Connection] = {}
        self.pids: list[int] = []
        self.threads: list[threading.Thread] = []
        self.selector: selectors.BaseSelector | None = None
        # The spawn budget bounds crash/respawn loops; a spawn's ordinal
        # is its index in spawn order.
        self.spawn_budget = self.workers * (self.options.max_retries + 2)
        self.spawn_count = 0

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def run(self) -> BackendRun:
        self.selector = selectors.DefaultSelector()
        try:
            self._ensure_workers()
            while len(self.done) < self.total:
                # Dispatch first, so an idle worker never waits out a
                # select timeout.
                self._dispatch()
                self._pump()
                self._sweep_liveness()
                if self._drained():
                    warnings.warn(
                        "process worker pool drained (no live or spawnable "
                        "workers left); degrading to in-driver execution",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    self._drain_in_driver()
                    break
        finally:
            self._cleanup()
        return self._finish()

    def _finish(self) -> BackendRun:
        self.record.outcomes.sort(key=lambda outcome: outcome.restart)
        self.record.retried_restarts = self.tracker.retried_restarts
        self.record.requeue_count = self.tracker.requeues
        return self.record

    # ------------------------------------------------------------------
    # I/O pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        timeout = max(0.01, min(self.options.heartbeat_interval, 0.25))
        for key, _ in self.selector.select(timeout):
            if key.data.fd in self.connections:
                self._service(key.data)

    def _service(self, connection: _Connection) -> None:
        try:
            frames = connection.endpoint.receive_available()
        except (ConnectionClosedError, TransportError) as error:
            self._fail_connection(connection, str(error))
            return
        for frame in frames:
            self._handle_frame(connection, frame)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, connection: _Connection, frame: dict) -> None:
        connection.last_seen = time.monotonic()
        kind = frame.get("kind")
        if kind == KIND_ACK:
            inflight = connection.inflight
            if inflight and frame.get("task_id") == inflight.task_id:
                inflight.acked = True
        elif kind == KIND_RESULT:
            self._handle_result(connection, frame)
        elif kind == KIND_ERROR:
            self._handle_worker_error(connection, frame)
        elif kind == KIND_HEARTBEAT:
            self._reconcile_heartbeat(connection, frame)
        # Unknown kinds are ignored.

    def _clear_inflight(self, connection: _Connection, frame: dict) -> None:
        inflight = connection.inflight
        if inflight is None:
            return
        if frame.get("task_id") == inflight.task_id or int(
            frame.get("restart", -1)
        ) == inflight.task.restart:
            connection.inflight = None

    def _handle_result(self, connection: _Connection, frame: dict) -> None:
        restart = int(frame.get("restart", -1))
        wall_time = 0.0
        inflight = connection.inflight
        if inflight and frame.get("task_id") == inflight.task_id:
            wall_time = time.monotonic() - inflight.dispatched
        self._clear_inflight(connection, frame)
        if not (0 <= restart < self.total) or restart in self.done:
            return  # stray or duplicate delivery — first result wins
        try:
            outcome = _outcome_from_frame(frame, wall_time)
        except (KeyError, TypeError, ValueError) as error:
            # A frame that is not an outcome counts as a failed run.
            self.record.worker_failures += 1
            self._requeue(
                RestartTask(restart=restart, seed=self.plan.seeds[restart]),
                f"malformed result frame ({type(error).__name__}: {error})",
            )
            return
        self.done.add(restart)
        self.record.outcomes.append(outcome)

    def _handle_worker_error(self, connection: _Connection, frame: dict) -> None:
        restart = frame.get("restart")
        self._clear_inflight(connection, frame)
        self.record.worker_failures += 1
        if restart is None:
            return
        restart = int(restart)
        if 0 <= restart < self.total and restart not in self.done:
            self._requeue(
                RestartTask(restart=restart, seed=self.plan.seeds[restart]),
                str(frame.get("message", "worker error")),
            )

    def _reconcile_heartbeat(self, connection: _Connection, frame: dict) -> None:
        inflight = connection.inflight
        if inflight is None or not inflight.acked:
            return
        if frame.get("task_id") == inflight.task_id:
            return  # still computing our task
        # The ACK proved the task arrived; the worker goes idle only
        # after sending the terminal frame, and the stream preserves order —
        # so an idle beat after the ACK means that frame was lost.
        connection.inflight = None
        if inflight.task.restart not in self.done:
            self._requeue(
                inflight.task, "result frame lost (worker idle after ack)"
            )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _next_task(self, now: float) -> RestartTask | None:
        """Pop the first dispatchable pending task, applying the same
        deadline discipline as the serial backend on the way."""
        keep: list[list] = []
        chosen: RestartTask | None = None
        for entry in self.pending:
            task, not_before = entry
            if chosen is not None:
                keep.append(entry)
                continue
            if task.restart in self.done:
                continue  # superseded by a completed duplicate
            if task.restart > 0 and self.plan.expired():
                self.done.add(task.restart)
                self.record.cancelled += 1
                continue
            if not_before > now:
                keep.append(entry)
                continue
            chosen = task
        self.pending = keep
        return chosen

    def _dispatch(self) -> None:
        now = time.monotonic()
        for connection in list(self.connections.values()):
            if connection.inflight is not None:
                continue
            task = self._next_task(now)
            if task is None:
                return
            attempt = self.tracker.failures.get(task.restart, 0)
            task_id = f"{task.restart}:{attempt}"
            try:
                connection.endpoint.send(
                    KIND_TASK, task_id=task_id, restart=task.restart
                )
            except (ConnectionClosedError, TransportError) as error:
                # The task never left: put it straight back (no retry
                # budget spent) and write the connection off.
                self.pending.append([task, now])
                self._fail_connection(connection, str(error))
                continue
            connection.inflight = _Inflight(
                task=task, task_id=task_id, dispatched=now
            )

    def _requeue(self, task: RestartTask, reason: str) -> None:
        """Count a failed attempt and reschedule after its backoff.

        Raises SolverError (via the tracker) once the restart's retry
        budget is spent.
        """
        delay = self.tracker.record_failure(task.restart, task.seed, reason)
        self.pending.append([task, time.monotonic() + delay])

    # ------------------------------------------------------------------
    # Liveness + worker pool
    # ------------------------------------------------------------------
    def _sweep_liveness(self) -> None:
        now = time.monotonic()
        timeout = self.options.heartbeat_timeout
        for connection in list(self.connections.values()):
            silence = now - connection.last_seen
            if silence > timeout:
                self._fail_connection(
                    connection,
                    f"no frames for {silence:.2f}s "
                    f"(heartbeat_timeout={timeout}s) — dead or stalled",
                )
                continue
            inflight = connection.inflight
            if (
                inflight is not None
                and not inflight.acked
                and now - inflight.dispatched > timeout
            ):
                # The TASK frame (or its ACK) was lost in transit; the
                # connection still heartbeats, so keep it and requeue.
                connection.inflight = None
                if inflight.task.restart not in self.done:
                    self._requeue(
                        inflight.task,
                        "task not acknowledged before heartbeat_timeout",
                    )
        self._ensure_workers()

    def _fail_connection(self, connection: _Connection, reason: str) -> None:
        if connection.fd not in self.connections:
            return  # already written off
        del self.connections[connection.fd]
        self.record.worker_failures += 1
        try:
            self.selector.unregister(connection.endpoint.sock)
        except (KeyError, ValueError, OSError):
            pass
        connection.endpoint.close()
        inflight = connection.inflight
        connection.inflight = None
        if inflight is None or inflight.task.restart in self.done:
            return
        if inflight.acked:
            self._requeue(inflight.task, reason)
        else:
            # The worker never acknowledged the task, so the restart
            # never ran there: put it back without spending its budget.
            self.pending.append([inflight.task, 0.0])

    def _ensure_workers(self) -> None:
        while (
            len(self.connections) < self.workers
            and self.spawn_count < self.spawn_budget
        ):
            ordinal = self.spawn_count
            self.spawn_count += 1
            try:
                sock = self._spawn_one(ordinal)
            except OSError:  # fork refused (process limit, memory)
                self.record.worker_failures += 1
                continue
            self._connect(ordinal, sock)

    def _drained(self) -> bool:
        return not self.connections and self.spawn_count >= self.spawn_budget

    def _spawn_one(self, ordinal: int) -> socket.socket:
        """Start worker ``ordinal``; returns the driver's end of its pair."""
        driver_sock, worker_sock = socket.socketpair()
        worker_faults = self.config.fault_plan.worker_faults(ordinal)
        if self.config.spawn == "thread":
            thread = threading.Thread(
                target=self._thread_worker,
                args=(worker_sock, self.plan, worker_faults),
                name=f"sa-process-worker-{ordinal}",
                daemon=True,
            )
            thread.start()
            self.threads.append(thread)
            return driver_sock
        from repro.sa.worker import run_worker

        try:
            pid = os.fork()
        except OSError:
            driver_sock.close()
            worker_sock.close()
            raise
        if pid:
            self.pids.append(pid)
            worker_sock.close()
            return driver_sock
        # The child: serve tasks, then leave without running any of the
        # parent's cleanup (atexit hooks, buffered output, finalizers).
        code = 1
        try:
            driver_sock.close()
            self._close_driver_sockets()
            _fresh_cached_property_locks()
            _single_thread_blas()
            run_worker(worker_sock, self.plan, faults=worker_faults)
            code = 0
        finally:
            os._exit(code)

    def _connect(self, ordinal: int, sock: socket.socket) -> None:
        """Start serving a freshly spawned worker's connection.

        A worker that never speaks is written off by the liveness sweep
        once ``heartbeat_timeout`` passes.
        """
        faults = self.config.fault_plan.endpoint_faults(ordinal)
        endpoint: Endpoint = (
            FaultyEndpoint(sock, faults, side="driver")
            if faults
            else Endpoint(sock)
        )
        connection = _Connection(
            endpoint=endpoint,
            fd=endpoint.fileno(),
            last_seen=time.monotonic(),
        )
        self.connections[connection.fd] = connection
        self.selector.register(endpoint.sock, selectors.EVENT_READ, connection)

    def _close_driver_sockets(self) -> None:
        """Drop a forked child's copies of the driver's sockets.

        Without this, a worker the driver writes off would not see its
        connection close while a sibling still held the driver's end.
        The selector is closed, never unregistered from: a forked epoll
        descriptor shares its interest list with the parent's.
        """
        self.selector.close()
        for connection in self.connections.values():
            connection.endpoint.close()

    @staticmethod
    def _thread_worker(
        sock: socket.socket, plan: PortfolioPlan, faults: list
    ) -> None:
        from repro.sa.transport.faults import FaultInjected
        from repro.sa.worker import run_worker

        try:
            run_worker(sock, plan, faults=faults)
        except (FaultInjected, TransportError, ConnectionClosedError, OSError):
            pass  # scheduled deaths and driver teardown are expected

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _drain_in_driver(self) -> None:
        """Run every restart still owed in the driver, in index order,
        through the serial backend's loop."""
        owed = {
            task.restart: task
            for task, _ in self.pending
            if task.restart not in self.done
        }
        run_in_process(
            self.plan, [owed[restart] for restart in sorted(owed)], self.record
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _cleanup(self) -> None:
        for connection in list(self.connections.values()):
            try:
                connection.endpoint.send(KIND_SHUTDOWN)
            except Exception:
                pass
            connection.endpoint.close()
        self.connections.clear()
        if self.selector is not None:
            self.selector.close()
        for pid in self.pids:
            _signal(pid, signal.SIGTERM)
        for pid in self.pids:
            if not _reap(pid, timeout=5):
                _signal(pid, signal.SIGKILL)
                _reap(pid, timeout=5)
        for thread in self.threads:
            thread.join(timeout=2)


def _outcome_from_frame(frame: dict, wall_time: float) -> RestartOutcome:
    """The :class:`RestartOutcome` a RESULT frame carries."""
    return RestartOutcome(
        restart=int(frame["restart"]),
        seed=frame["seed"],
        x=np.asarray(frame["x"], dtype=bool),
        y=np.asarray(frame["y"], dtype=bool),
        objective6=float(frame["objective6"]),
        iterations=int(frame["iterations"]),
        accepted=int(frame["accepted"]),
        accepted_worse=int(frame["accepted_worse"]),
        outer_loops=int(frame["outer_loops"]),
        wall_time=wall_time,
    )


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid``; True once reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            reaped, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if reaped or time.monotonic() >= deadline:
            return bool(reaped)
        time.sleep(0.005)


def _fresh_cached_property_locks() -> None:
    """Give this forked worker unheld ``cached_property`` locks.

    Up to Python 3.11, ``functools.cached_property`` computes under one
    ``RLock`` per class attribute, shared by every instance.  A fork
    copies that lock held when another driver thread (a service solving
    requests in threads) is computing such a property at that moment,
    and the worker's first read of a property its plan has not cached
    yet would then wait forever while its heartbeats still say busy.
    Python 3.12 dropped the lock; there is nothing to replace.
    """
    from repro.costmodel.coefficients import CostCoefficients
    from repro.model.compressed import LiftingMap
    from repro.model.instance import ProblemInstance

    for cls in (CostCoefficients, LiftingMap, ProblemInstance):
        for attribute in vars(cls).values():
            if isinstance(attribute, functools.cached_property) and hasattr(
                attribute, "lock"
            ):
                attribute.lock = threading.RLock()


def _single_thread_blas() -> None:
    """Run this worker's OpenBLAS on one thread.

    A forked worker inherits its parent's BLAS threads, so ``jobs``
    workers would run ``jobs`` times that many on the same cores.
    numpy's wheels export the setter from the OpenBLAS their extension
    module links; other builds may not, and then nothing changes.
    """
    try:
        from numpy._core import _multiarray_umath

        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    setter = getattr(library, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
