"""The remote worker of the socket transport: ``python -m repro.sa.worker``.

A worker is one box of the multi-box portfolio.  It dials the driver
(``--connect HOST:PORT``), negotiates protocol and envelope versions,
and then loops: receive a TASK frame, acknowledge it, run the task
envelope through the same :class:`~repro.sa.backends.queue.QueueWorker`
the driver's in-driver loop uses — so a result computed remotely is
byte-identical to one computed locally — and send the RESULT frame
back.  A daemon ticker thread heartbeats throughout (carrying the id of
the task currently running, so the driver can tell "lost the result"
from "still computing").

Frame-ordering invariant the driver's liveness reconciliation relies
on: the worker marks itself busy *before* sending the ACK and idle only
*after* sending the RESULT/ERROR frame, and all sends share one
lock — so on the (ordered) TCP stream, any heartbeat claiming idleness
after an ACK proves the task's terminal frame was already sent.  If the
driver saw the ACK but no terminal frame, that frame was lost, and the
restart is safe to requeue.

``--fault-plan`` accepts a JSON :class:`~repro.sa.transport.faults.
FaultPlan`; only its worker-side actions apply here (``kill-worker``
dies abruptly mid-restart, ``stall-heartbeat`` goes silent while still
computing) — the chaos suite uses this to rehearse worker crashes
deterministically.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading

from repro.exceptions import ConnectionClosedError, TransportError
from repro.sa.backends.queue import ENVELOPE_FORMAT_VERSION, QueueWorker
from repro.sa.transport.faults import (
    WORKER_ACTIONS,
    Fault,
    FaultInjected,
    FaultPlan,
    FaultyEndpoint,
)
from repro.sa.transport.protocol import (
    KIND_ACK,
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    Endpoint,
    negotiate_client,
)


class WorkerSession:
    """One connected worker: heartbeat ticker plus the task loop."""

    def __init__(self, endpoint: Endpoint, ack: dict):
        self.endpoint = endpoint
        self.heartbeat_interval = float(ack.get("heartbeat_interval", 0.5))
        self.worker = QueueWorker()
        #: task_id currently being run (read by the ticker thread; a
        #: plain attribute is enough — torn reads are impossible for an
        #: object reference and the protocol tolerates a stale beat).
        self.current: str | None = None
        self._stop = threading.Event()

    # -- heartbeat ticker (daemon thread) ------------------------------
    def _tick(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
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
                # Anything else (late ERROR, stray frames) is ignored —
                # robustness beats strictness once the handshake is done.
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
        try:
            result = self.worker.run(frame["envelope"])
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
            KIND_RESULT, task_id=task_id, restart=restart, envelope=result
        )
        self.current = None


def run_worker(
    host: str,
    port: int,
    faults: list[Fault] | tuple[Fault, ...] = (),
    connect_timeout: float = 30.0,
) -> None:
    """Dial the driver and serve tasks until shutdown/disconnect.

    Raises :class:`~repro.sa.transport.faults.FaultInjected` when a
    scheduled kill fires (the ``__main__`` wrapper turns that into a
    nonzero — but deliberate — exit).
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.settimeout(None)
    if faults:
        endpoint: Endpoint = FaultyEndpoint(sock, list(faults), side="worker")
    else:
        endpoint = Endpoint(sock)
    try:
        ack = negotiate_client(endpoint, ENVELOPE_FORMAT_VERSION)
    except (TransportError, ConnectionClosedError):
        endpoint.close()
        raise
    WorkerSession(endpoint, ack).run()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sa.worker",
        description=(
            "Socket-transport portfolio worker: connects to a driver "
            "running SaOptions(backend='socket') and executes restart "
            "task envelopes."
        ),
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="driver address to dial",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help=(
            "JSON FaultPlan; only worker-side actions (kill-worker, "
            "stall-heartbeat) apply — used by the chaos test suite"
        ),
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
    faults: list[Fault] = []
    if args.fault_plan:
        plan = FaultPlan.from_json(args.fault_plan)
        faults = [f for f in plan.faults if f.action in WORKER_ACTIONS]
    try:
        run_worker(host or "127.0.0.1", port, faults=faults)
    except FaultInjected as fault:
        print(f"worker dying on schedule: {fault}", file=sys.stderr)
        return 1
    except (TransportError, ConnectionClosedError, OSError) as error:
        print(f"worker transport failure: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
