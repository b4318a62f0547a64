"""The worker side of the process backend's transport.

A worker is one forked child of the portfolio driver
(:mod:`repro.sa.transport.socket_backend`), connected to it by a socket
pair made before the fork.  It inherits the portfolio's plan and loops
on one thread: receive a TASK frame naming a restart, anneal that
restart on the inherited coefficients with
:func:`~repro.sa.backends.base.run_restart` — the serial backend's own
call, so its outcome is bitwise the serial one — and send the outcome
back in a RESULT frame.

Liveness comes from the anneal itself.  ``run_restart`` calls the
session's progress hook as the restart starts and once per inner
iteration; the hook sends a HEARTBEAT naming the restart and its
iteration count, at most one per ``heartbeat_timeout /
BEATS_PER_TIMEOUT`` seconds (the call that starts a restart always
sends, so the driver learns the task began).  A worker whose main
thread blocks therefore goes silent, and the driver's liveness sweep
writes it off.

The worker session also fires the worker's part of a
:class:`~repro.sa.transport.faults.FaultPlan`: ``kill-worker`` raises
:class:`~repro.sa.transport.faults.FaultInjected` instead of sending a
RESULT, and ``block`` blocks the main thread forever at a progress
call — the chaos suite uses them to rehearse both failures
deterministically.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.exceptions import TransportError
from repro.sa.backends.base import PortfolioPlan, run_restart
from repro.sa.transport.faults import Fault, FaultInjected
from repro.sa.transport.protocol import (
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
)

#: A worker sends at most one heartbeat per ``heartbeat_timeout /
#: BEATS_PER_TIMEOUT`` seconds.
BEATS_PER_TIMEOUT = 10


class WorkerSession:
    """One connected worker: the task loop and the anneal's progress hook."""

    def __init__(
        self,
        endpoint: Endpoint,
        plan: PortfolioPlan,
        faults: list[Fault] | tuple[Fault, ...] = (),
    ):
        self.endpoint = endpoint
        self.plan = plan
        self.beat_interval = plan.options.heartbeat_timeout / BEATS_PER_TIMEOUT
        self.kill_at = {f.index for f in faults if f.action == "kill-worker"}
        self.block_at = {f.index for f in faults if f.action == "block"}
        self.results_sent = 0
        self.progress_calls = 0
        self.restart = -1
        self.next_beat = 0.0

    def run(self) -> None:
        try:
            while True:
                frame = self.endpoint.recv(timeout=None)
                if frame["kind"] == KIND_SHUTDOWN:
                    return
                if frame["kind"] == KIND_TASK:
                    self._run_task(int(frame["restart"]))
        except TransportError:
            # The driver hung up (it finished or wrote this worker off):
            # there is nobody left to report to.
            return
        finally:
            self.endpoint.close()

    def progress(self, iterations: int) -> None:
        """The anneal's progress hook: beat at most once per interval."""
        if self.progress_calls in self.block_at:
            threading.Event().wait()  # the block fault: silent for good
        self.progress_calls += 1
        now = time.monotonic()
        if now >= self.next_beat:
            self.next_beat = now + self.beat_interval
            self.endpoint.send(
                KIND_HEARTBEAT, restart=self.restart, iterations=iterations
            )

    def _run_task(self, restart: int) -> None:
        self.restart = restart
        self.next_beat = 0.0  # the restart's first progress call beats
        plan = self.plan
        try:
            outcome = run_restart(
                plan.coefficients,
                plan.num_sites,
                plan.options,
                restart,
                plan.seeds[restart],
                plan.deadline,
                progress=self.progress,
            )
        except Exception as error:
            self.endpoint.send(
                KIND_ERROR,
                restart=restart,
                message=f"{type(error).__name__}: {error}",
            )
            return
        if self.results_sent in self.kill_at:
            raise FaultInjected(
                f"fault plan kills this worker at result #{self.results_sent}"
            )
        self.results_sent += 1
        self.endpoint.send(
            KIND_RESULT,
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


def run_worker(
    sock: socket.socket,
    plan: PortfolioPlan,
    faults: list[Fault] | tuple[Fault, ...] = (),
) -> None:
    """Serve ``plan``'s restarts over ``sock`` until shutdown/disconnect.

    Raises :class:`~repro.sa.transport.faults.FaultInjected` when a
    scheduled kill fires; the forked worker then exits.
    """
    WorkerSession(Endpoint(sock), plan, faults).run()
