"""The ``"socket"`` execution backend: a fault-tolerant multi-box driver.

The driver listens on a loopback port, spawns ``workers`` remote worker
processes (``python -m repro.sa.worker --connect ...``), and schedules
the portfolio's restart tasks over the connections with an
at-least-once discipline:

* every dispatched TASK frame must be ACKed; a task that is neither
  acknowledged nor resolved within the heartbeat timeout is presumed
  lost and requeued;
* workers heartbeat continuously, carrying the id of the task they are
  running — so when a heartbeat says *idle* after the task was ACKed,
  the terminal RESULT/ERROR frame is known lost (TCP preserves
  per-connection order and the worker goes idle only after sending it)
  and the restart is requeued without waiting for any timeout;
* a connection that stays silent past ``heartbeat_timeout`` is declared
  dead: it is closed, its in-flight restart requeued, and a replacement
  worker spawned (bounded by a spawn budget so a crash loop terminates);
* requeues are bounded per restart by ``max_retries`` and spread out by
  a deterministic exponential backoff
  (:func:`repro.sa.backends.retry.backoff_delay`); an exhausted budget
  fails the whole solve with :class:`~repro.exceptions.SolverError`
  naming the restart — a silently lost restart would change the
  best-of-N result, which the determinism contract forbids;
* when the pool drains to zero with no spawn budget left, the driver
  degrades gracefully: the remaining restarts run in-driver through the
  very same task envelopes (a
  :class:`~repro.sa.backends.queue.QueueWorker` loop), so the result is
  still bitwise identical — only slower.

Duplicate deliveries (retries racing late results, duplicated frames)
are harmless by construction: a result envelope is a pure function of
its task envelope, and the driver keeps the *first* result per restart
index — any second copy is byte-identical anyway.

Determinism: for a fixed master seed the returned best is bitwise
identical to :class:`~repro.sa.backends.serial.SerialBackend` whatever
the fault schedule, worker count, or retry history — pinned across the
whole fault matrix by ``tests/test_transport.py``.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

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
from repro.sa.backends.queue import (
    ENVELOPE_FORMAT_VERSION,
    QueueWorker,
    _check_wire_safe,
    decode_restart_result,
    encode_restart_task,
)
from repro.sa.backends.retry import RetryTracker
from repro.sa.transport.faults import FaultPlan, FaultyEndpoint
from repro.sa.transport.protocol import (
    KIND_ACK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
    negotiate_server,
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

    ordinal: int
    endpoint: Endpoint
    fd: int
    last_seen: float
    inflight: _Inflight | None = None


class SocketTransportBackend:
    """Drive the portfolio over loopback sockets to worker processes.

    ``workers`` overrides ``SaOptions.workers`` (``None`` falls back to
    the portfolio's ``jobs`` slots; ``0`` runs everything in-driver —
    the degraded mode, available explicitly).  ``spawn`` selects how
    workers come up: ``"process"`` execs ``python -m repro.sa.worker``,
    ``"thread"`` runs the same worker loop in daemon threads (fast, for
    tests — the protocol path is identical).  ``fault_plan`` replays a
    deterministic :class:`~repro.sa.transport.faults.FaultPlan` against
    the connections (chaos tests only).
    """

    name = "socket"

    def __init__(
        self,
        workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        spawn: str = "process",
        connect_timeout: float = 15.0,
    ):
        if spawn not in ("process", "thread"):
            raise OptionsError(
                f"spawn must be 'process' or 'thread', got {spawn!r}"
            )
        if workers is not None and workers < 0:
            raise OptionsError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.fault_plan = fault_plan or FaultPlan()
        self.spawn = spawn
        self.connect_timeout = connect_timeout

    def run(self, plan: PortfolioPlan) -> BackendRun:
        _check_wire_safe(plan.coefficients)
        workers = self.workers
        if workers is None:
            workers = plan.options.workers
        if workers is None:
            workers = plan.jobs
        if workers > 0:
            workers = min(workers, len(plan.seeds))
        return _Driver(plan, self, workers).run()


class _Driver:
    """One portfolio execution: scheduler, liveness monitor, fallback."""

    def __init__(
        self, plan: PortfolioPlan, config: SocketTransportBackend, workers: int
    ):
        self.plan = plan
        self.options = plan.options
        self.config = config
        self.workers = workers
        self.tracker = RetryTracker(
            self.options.max_retries,
            backoff_base=self.options.backoff_base,
            label="socket worker",
        )
        self.record = BackendRun(outcomes=[], kind="socket")
        self.total = len(plan.seeds)
        #: [task, not-before] dispatch queue (monotonic not-before
        #: implements the retry backoff).
        self.pending: list[list] = [[task, 0.0] for task in plan.tasks()]
        self.done: set[int] = set()
        self.connections: dict[int, _Connection] = {}
        self.processes: list[subprocess.Popen] = []
        self.threads: list[threading.Thread] = []
        self.selector: selectors.BaseSelector | None = None
        self.listener: socket.socket | None = None
        self.port = 0
        # Spawn accounting: the budget bounds crash/respawn loops; a
        # spawn that never dials in within connect_timeout is written
        # off (but its budget is never refunded).
        self.spawn_budget = max(1, workers) * (self.options.max_retries + 2)
        self.spawn_count = 0
        self.unconnected = 0
        self.next_ordinal = 0
        self.accept_ordinal = 0
        self.last_spawn = time.monotonic()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def run(self) -> BackendRun:
        if self.workers <= 0:
            # Explicit degraded mode: no pool, everything in-driver.
            self._drain_in_driver()
            return self._finish()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.setblocking(False)
        self.port = self.listener.getsockname()[1]
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.listener, selectors.EVENT_READ, None)
        try:
            self._ensure_workers()
            while len(self.done) < self.total:
                self._pump()
                self._sweep_liveness()
                self._dispatch()
                if self._drained():
                    warnings.warn(
                        "socket worker pool drained (no live or spawnable "
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
            if key.data is None:
                self._accept()
            elif key.data.fd in self.connections:
                self._service(key.data)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except (BlockingIOError, OSError):
                return
            ordinal = self.accept_ordinal
            self.accept_ordinal += 1
            self.unconnected = max(0, self.unconnected - 1)
            sock.setblocking(True)
            faults = self.config.fault_plan.endpoint_faults(ordinal)
            endpoint: Endpoint = (
                FaultyEndpoint(sock, faults, side="driver")
                if faults
                else Endpoint(sock)
            )
            try:
                negotiate_server(
                    endpoint,
                    ENVELOPE_FORMAT_VERSION,
                    timeout=self.config.connect_timeout,
                    **self._ack_fields(),
                )
            except (TransportError, ConnectionClosedError):
                endpoint.close()
                self.record.worker_failures += 1
                continue
            fd = endpoint.fileno()
            connection = _Connection(
                ordinal=ordinal,
                endpoint=endpoint,
                fd=fd,
                last_seen=time.monotonic(),
            )
            self.connections[fd] = connection
            self.selector.register(endpoint.sock, selectors.EVENT_READ, connection)

    def _ack_fields(self) -> dict:
        return {"heartbeat_interval": self.options.heartbeat_interval}

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
        # Unknown kinds are ignored: forward compatibility beats
        # strictness once the versioned handshake has passed.

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
            outcome = decode_restart_result(frame["envelope"], wall_time=wall_time)
        except Exception as error:  # undecodable: treat as a failed run
            self.record.worker_failures += 1
            self._requeue(
                RestartTask(restart=restart, seed=self.plan.seeds[restart]),
                f"undecodable result envelope ({type(error).__name__}: {error})",
            )
            return
        self._record_outcome(outcome)

    def _record_outcome(self, outcome: RestartOutcome) -> None:
        self.done.add(outcome.restart)
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
        # after sending the terminal frame, and TCP preserves order —
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
            envelope = encode_restart_task(
                self.plan.coefficients,
                self.plan.num_sites,
                self.options,
                task,
                remaining=self.plan.remaining(),
            )
            attempt = self.tracker.failures.get(task.restart, 0)
            task_id = f"{task.restart}:{attempt}"
            try:
                connection.endpoint.send(
                    KIND_TASK,
                    task_id=task_id,
                    restart=task.restart,
                    envelope=envelope,
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
        if inflight is not None and inflight.task.restart not in self.done:
            self._requeue(inflight.task, reason)

    def _ensure_workers(self) -> None:
        now = time.monotonic()
        if self.unconnected and now - self.last_spawn > self.config.connect_timeout:
            # Spawns that never dialed in are presumed dead.  Their
            # budget is not refunded — that is what makes a pre-connect
            # crash loop terminate.
            self.unconnected = 0
        while (
            len(self.connections) + self.unconnected < self.workers
            and self.spawn_count < self.spawn_budget
        ):
            self._spawn_one(self.next_ordinal)
            self.next_ordinal += 1
            self.spawn_count += 1
            self.unconnected += 1
            self.last_spawn = now

    def _drained(self) -> bool:
        return (
            not self.connections
            and self.unconnected == 0
            and self.spawn_count >= self.spawn_budget
        )

    def _spawn_one(self, ordinal: int) -> None:
        worker_faults = self.config.fault_plan.worker_faults(ordinal)
        if self.config.spawn == "thread":
            thread = threading.Thread(
                target=self._thread_worker,
                args=("127.0.0.1", self.port, worker_faults),
                name=f"sa-socket-worker-{ordinal}",
                daemon=True,
            )
            thread.start()
            self.threads.append(thread)
            return
        command = [
            sys.executable,
            "-m",
            "repro.sa.worker",
            "--connect",
            f"127.0.0.1:{self.port}",
        ]
        if worker_faults:
            command += [
                "--fault-plan",
                FaultPlan(faults=tuple(worker_faults)).to_json(),
            ]
        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            source_root + os.pathsep + existing if existing else source_root
        )
        self.processes.append(
            subprocess.Popen(
                command,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )

    @staticmethod
    def _thread_worker(host: str, port: int, faults: list) -> None:
        from repro.sa.transport.faults import FaultInjected
        from repro.sa.worker import run_worker

        try:
            run_worker(host, port, faults=faults)
        except (FaultInjected, TransportError, ConnectionClosedError, OSError):
            pass  # scheduled deaths and driver teardown are expected

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _drain_in_driver(self) -> None:
        """Run everything still owed through an in-driver
        :class:`QueueWorker` loop (all of it when ``workers=0``).

        Same envelope encode/decode path as the remote workers, so the
        outcomes — and hence the portfolio best — stay bitwise
        identical.  A worker that raises is requeued at the back with
        no backoff; retry bookkeeping keeps running so a poisoned
        restart still fails loudly instead of looping.
        """
        worker = QueueWorker()
        self.pending = [[task, 0.0] for task, _ in self.pending]
        while len(self.done) < self.total:
            task = self._next_task(time.monotonic())
            if task is None:
                break  # everything left was cancelled
            envelope = encode_restart_task(
                self.plan.coefficients,
                self.plan.num_sites,
                self.options,
                task,
                remaining=self.plan.remaining(),
            )
            started = time.perf_counter()
            try:
                result = worker.run(envelope)
            except Exception as error:
                self.record.worker_failures += 1
                self._requeue(task, f"{type(error).__name__}: {error}")
                self.pending[-1][1] = 0.0  # no backoff in-driver
                continue
            outcome = decode_restart_result(
                result, wall_time=time.perf_counter() - started
            )
            if outcome.restart in self.done:
                continue
            self._record_outcome(outcome)

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
        if self.listener is not None:
            self.listener.close()
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        for thread in self.threads:
            thread.join(timeout=2)
