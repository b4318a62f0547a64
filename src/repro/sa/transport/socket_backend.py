"""The ``"process"`` execution backend: restarts on forked local workers.

The driver forks ``jobs`` worker processes, each connected to it by its
own ``socket.socketpair()`` made before the fork, so no other process
can reach either end.  A worker (:func:`repro.sa.worker.run_worker`)
inherits the portfolio's plan and anneals the caller's own
coefficients, exactly as the serial backend does: a TASK frame names
only the restart, and the RESULT frame carries the finished restart's
outcome back.  A socket pair between a process and its fork cannot
drop, duplicate, reorder or corrupt a frame, so a worker fails in only
three ways — it dies, its restart raises, or its main thread blocks —
and the driver schedules the portfolio's restarts over the connections
with that in mind:

* a worker beats from its anneal loop: a HEARTBEAT as each restart
  starts and then at most one per beat interval while it runs
  (:mod:`repro.sa.worker`).  The first heartbeat of a task marks it
  started;
* a connection that closes (the worker died), and one with a task in
  flight that stays silent past ``heartbeat_timeout`` since the
  dispatch or its last frame (the worker blocked), is written off: the
  worker is killed, its connection closed, its restart requeued and a
  replacement forked, bounded by a spawn budget so a crash loop
  terminates.  An idle worker sends nothing and is never written off
  for it.  Under ``subsolver="exact"`` one iteration runs one MIP of up
  to ``exact_time_limit`` seconds with no progress call inside, so the
  driver tolerates that much more silence;
* a restart that raised (an ERROR frame) or whose worker failed after
  it started is requeued against its retry budget; one whose worker
  failed before it started goes back at no cost, since it never ran;
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

Determinism: for a fixed master seed the returned best is bitwise
identical to :class:`~repro.sa.backends.serial.SerialBackend` whatever
the fault schedule, worker count, or retry history — a restart's
outcome is a pure function of its index and the plan, and a retry runs
only once the failed attempt's worker is gone, so each restart reports
once.  Pinned across the fault matrix by ``tests/test_transport.py``.
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

from repro.exceptions import TransportError
from repro.sa.backends.base import (
    BackendRun,
    PortfolioPlan,
    RestartOutcome,
    RestartTask,
)
from repro.sa.backends.retry import RetryTracker
from repro.sa.backends.serial import run_in_process
from repro.sa.transport.faults import FaultPlan
from repro.sa.transport.protocol import (
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
)

#: Longest the driver waits for a frame before it re-checks backoffs
#: and liveness.
_POLL_SECONDS = 0.05


@dataclass
class _Inflight:
    """One dispatched task awaiting its terminal frame."""

    task: RestartTask
    dispatched: float
    #: A heartbeat for this restart arrived: the restart ran.
    started: bool = False


@dataclass
class _Connection:
    """Driver-side state of one connected worker."""

    endpoint: Endpoint
    fd: int
    pid: int
    #: The last frame, or the dispatch of the task in flight if later.
    last_seen: float
    inflight: _Inflight | None = None


class SocketTransportBackend:
    """Drive the portfolio over socket pairs to forked worker processes.

    The portfolio's ``jobs`` slots set the number of workers.
    ``fault_plan`` replays a deterministic
    :class:`~repro.sa.transport.faults.FaultPlan` in the workers (chaos
    tests only).
    """

    name = "process"

    def __init__(self, fault_plan: FaultPlan | None = None):
        self.fault_plan = fault_plan or FaultPlan()

    def run(self, plan: PortfolioPlan) -> BackendRun:
        if not hasattr(os, "fork"):
            warnings.warn(
                "SA portfolio running in-driver: this platform cannot "
                "fork worker processes",
                RuntimeWarning,
                stacklevel=3,
            )
            run = BackendRun(outcomes=[], kind=self.name)
            run_in_process(plan, plan.tasks(), run)
            return run
        return _Driver(plan, self.fault_plan).run()


class _Driver:
    """One portfolio execution: scheduler, liveness monitor, fallback."""

    def __init__(self, plan: PortfolioPlan, fault_plan: FaultPlan):
        self.plan = plan
        self.options = plan.options
        self.fault_plan = fault_plan
        self.workers = plan.jobs
        self.tracker = RetryTracker(
            self.options.max_retries,
            backoff_base=self.options.backoff_base,
            label="process worker",
        )
        #: Silence tolerated from a worker with a task in flight.
        self.silence_limit = self.options.heartbeat_timeout
        if self.options.subsolver == "exact":
            self.silence_limit += self.options.exact_time_limit
        self.record = BackendRun(outcomes=[], kind=SocketTransportBackend.name)
        self.total = len(plan.seeds)
        #: [task, not-before] dispatch queue (monotonic not-before
        #: implements the retry backoff).  A restart is in exactly one
        #: place: pending, in flight on one connection, or done.
        self.pending: list[list] = [[task, 0.0] for task in plan.tasks()]
        self.done: set[int] = set()
        self.connections: dict[int, _Connection] = {}
        self.pids: list[int] = []
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
        for key, _ in self.selector.select(_POLL_SECONDS):
            if key.data.fd in self.connections:
                self._service(key.data)

    def _service(self, connection: _Connection) -> None:
        try:
            frames = connection.endpoint.receive_available()
        except TransportError as error:
            self._fail_connection(connection, str(error))
            return
        for frame in frames:
            self._handle_frame(connection, frame)

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, connection: _Connection, frame: dict) -> None:
        # A worker sends frames only about the restart in flight on its
        # connection, and none after that restart's RESULT or ERROR.
        now = time.monotonic()
        connection.last_seen = now
        kind = frame["kind"]
        inflight = connection.inflight
        if kind == KIND_HEARTBEAT:
            inflight.started = True
            return
        connection.inflight = None
        if kind == KIND_RESULT:
            self.done.add(inflight.task.restart)
            self.record.outcomes.append(
                _outcome_from_frame(frame, now - inflight.dispatched)
            )
        elif kind == KIND_ERROR:
            self.record.worker_failures += 1
            self._requeue(inflight.task, str(frame["message"]))

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
            try:
                connection.endpoint.send(KIND_TASK, restart=task.restart)
            except TransportError as error:
                # The task never left: put it straight back (no retry
                # budget spent) and write the connection off.
                self.pending.append([task, now])
                self._fail_connection(connection, str(error))
                continue
            connection.inflight = _Inflight(task=task, dispatched=now)
            connection.last_seen = now

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
        for connection in list(self.connections.values()):
            silence = now - connection.last_seen
            if connection.inflight is not None and silence > self.silence_limit:
                self._fail_connection(
                    connection,
                    f"no frames for {silence:.2f}s with restart "
                    f"{connection.inflight.task.restart} in flight "
                    f"(limit {self.silence_limit}s) — blocked",
                )
        self._ensure_workers()

    def _fail_connection(self, connection: _Connection, reason: str) -> None:
        if connection.fd not in self.connections:
            return  # already written off
        del self.connections[connection.fd]
        self.record.worker_failures += 1
        self.selector.unregister(connection.endpoint.sock)
        connection.endpoint.close()
        _signal(connection.pid, signal.SIGKILL)
        inflight = connection.inflight
        connection.inflight = None
        if inflight is None:
            return
        if inflight.started:
            self._requeue(inflight.task, reason)
        else:
            # The restart never started there: put it back without
            # spending its budget.
            self.pending.append([inflight.task, 0.0])

    def _ensure_workers(self) -> None:
        while (
            len(self.connections) < self.workers
            and self.spawn_count < self.spawn_budget
        ):
            ordinal = self.spawn_count
            self.spawn_count += 1
            try:
                sock, pid = self._spawn_one(ordinal)
            except OSError:  # fork refused (process limit, memory)
                self.record.worker_failures += 1
                continue
            self._connect(sock, pid)

    def _drained(self) -> bool:
        return not self.connections and self.spawn_count >= self.spawn_budget

    def _spawn_one(self, ordinal: int) -> tuple[socket.socket, int]:
        """Fork worker ``ordinal``; returns the driver's end of its pair
        and the worker's pid."""
        from repro.sa.worker import run_worker

        driver_sock, worker_sock = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            driver_sock.close()
            worker_sock.close()
            raise
        if pid:
            self.pids.append(pid)
            worker_sock.close()
            return driver_sock, pid
        # The child: serve tasks, then leave without running any of the
        # parent's cleanup (atexit hooks, buffered output, finalizers).
        code = 1
        try:
            driver_sock.close()
            self._close_driver_sockets()
            _fresh_cached_property_locks()
            _single_thread_blas()
            run_worker(
                worker_sock,
                self.plan,
                faults=self.fault_plan.worker_faults(ordinal),
            )
            code = 0
        finally:
            os._exit(code)

    def _connect(self, sock: socket.socket, pid: int) -> None:
        """Start serving a freshly forked worker's connection."""
        endpoint = Endpoint(sock)
        connection = _Connection(
            endpoint=endpoint,
            fd=endpoint.fileno(),
            pid=pid,
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

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _drain_in_driver(self) -> None:
        """Run every restart still owed in the driver, in index order,
        through the serial backend's loop."""
        owed = sorted((task for task, _ in self.pending), key=lambda t: t.restart)
        run_in_process(self.plan, owed, self.record)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _cleanup(self) -> None:
        for connection in list(self.connections.values()):
            try:
                connection.endpoint.send(KIND_SHUTDOWN)
            except TransportError:
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
    yet would then wait forever.  The silent worker would be written
    off and its restart retried, but a retry's fork could copy the lock
    held again, until the restart's retries are spent and the solve
    fails.  Python 3.12 dropped the lock; there is nothing to replace.
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
