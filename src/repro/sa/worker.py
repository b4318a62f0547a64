"""The worker side of the process backend's transport.

A worker is one forked child of the portfolio driver
(:mod:`repro.sa.transport.socket_backend`), connected to it by a socket
pair made before the fork.  It inherits the portfolio's plan, and with
it the heartbeat interval, and loops: receive a TASK frame naming a
restart, acknowledge it, anneal that restart on the inherited
coefficients with :func:`~repro.sa.backends.base.run_restart` — the
serial backend's own call, so its outcome is bitwise the serial one —
and send the outcome back in a RESULT frame.  A daemon ticker thread
heartbeats throughout (carrying the id of the task currently running,
so the driver can tell "lost the result" from "still computing").

Frame-ordering invariant the driver's liveness reconciliation relies
on: the worker marks itself busy *before* sending the ACK and idle only
*after* sending the RESULT/ERROR frame, and all sends share one
lock — so on the (ordered) stream, any heartbeat claiming idleness
after an ACK proves the task's terminal frame was already sent.  If the
driver saw the ACK but no terminal frame, that frame was lost, and the
restart is safe to requeue.

Only the worker-side actions of a
:class:`~repro.sa.transport.faults.FaultPlan` apply here
(``kill-worker`` dies abruptly mid-restart, ``stall-heartbeat`` goes
silent while still computing) — the chaos suite uses them to rehearse
worker crashes deterministically.
"""

from __future__ import annotations

import socket
import threading

from repro.exceptions import ConnectionClosedError, TransportError
from repro.sa.backends.base import PortfolioPlan, run_restart
from repro.sa.transport.faults import Fault, FaultInjected, FaultyEndpoint
from repro.sa.transport.protocol import (
    KIND_ACK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
)


class WorkerSession:
    """One connected worker: heartbeat ticker plus the task loop."""

    def __init__(self, endpoint: Endpoint, plan: PortfolioPlan):
        self.endpoint = endpoint
        self.plan = plan
        #: task_id currently being run (read by the ticker thread; a
        #: plain attribute is enough — torn reads are impossible for an
        #: object reference and the protocol tolerates a stale beat).
        self.current: str | None = None
        self._stop = threading.Event()

    # -- heartbeat ticker (daemon thread) ------------------------------
    def _tick(self) -> None:
        while not self._stop.wait(self.plan.options.heartbeat_interval):
            try:
                self.endpoint.send(
                    KIND_HEARTBEAT,
                    task_id=self.current,
                    busy=self.current is not None,
                )
            except (ConnectionClosedError, OSError):
                return
            except FaultInjected:
                return  # scheduled death of the ticker = silent worker

    # -- task loop -----------------------------------------------------
    def run(self) -> None:
        ticker = threading.Thread(
            target=self._tick, name="sa-worker-heartbeat", daemon=True
        )
        ticker.start()
        try:
            while True:
                frame = self.endpoint.recv(timeout=None)
                kind = frame["kind"]
                if kind == KIND_SHUTDOWN:
                    return
                if kind == KIND_TASK:
                    self._handle_task(frame)
                # Anything else (stray frames) is ignored.
        except (ConnectionClosedError, TransportError):
            # Driver gone or stream corrupt: nothing to report to, and
            # the driver's liveness monitor handles our disappearance.
            return
        finally:
            self._stop.set()
            self.endpoint.close()

    def _handle_task(self, frame: dict) -> None:
        task_id = frame.get("task_id")
        restart = int(frame.get("restart", -1))
        # Busy *before* the ACK, idle only *after* the terminal frame —
        # see the module docstring for the reconciliation proof.
        self.current = task_id
        self.endpoint.send(KIND_ACK, task_id=task_id)
        plan = self.plan
        try:
            outcome = run_restart(
                plan.coefficients,
                plan.num_sites,
                plan.options,
                restart,
                plan.seeds[restart],
                plan.deadline,
            )
        except Exception as error:
            self.endpoint.send(
                KIND_ERROR,
                task_id=task_id,
                restart=restart,
                message=f"{type(error).__name__}: {error}",
            )
            self.current = None
            return
        # A kill-worker fault fires here, in the send itself — dying
        # with the result computed but unsent, the worst-timed crash.
        self.endpoint.send(
            KIND_RESULT,
            task_id=task_id,
            restart=restart,
            seed=outcome.seed,
            x=outcome.x.astype(int).tolist(),
            y=outcome.y.astype(int).tolist(),
            objective6=float(outcome.objective6),
            iterations=outcome.iterations,
            accepted=outcome.accepted,
            accepted_worse=outcome.accepted_worse,
            outer_loops=outcome.outer_loops,
        )
        self.current = None


def run_worker(
    sock: socket.socket,
    plan: PortfolioPlan,
    faults: list[Fault] | tuple[Fault, ...] = (),
) -> None:
    """Serve ``plan``'s restarts over ``sock`` until shutdown/disconnect.

    Raises :class:`~repro.sa.transport.faults.FaultInjected` when a
    scheduled kill fires (a forked worker then exits; a thread worker
    ends).
    """
    if faults:
        endpoint: Endpoint = FaultyEndpoint(sock, list(faults), side="worker")
    else:
        endpoint = Endpoint(sock)
    WorkerSession(endpoint, plan).run()
