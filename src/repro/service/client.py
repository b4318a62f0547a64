"""Synchronous client for the advisor service.

Reuses the portfolio transport's :class:`~repro.sa.transport.protocol.Endpoint`
(same frame format on the socket), performs the service handshake, and
exposes a blocking ``advise`` plus a pipelined ``advise_many``.  A
``rejected`` frame surfaces as the same structured
:class:`~repro.exceptions.RejectedError` the in-process facade raises,
so callers handle backpressure identically whether they embed
:class:`~repro.service.core.AsyncAdvisor` or dial the socket.
"""

from __future__ import annotations

import socket
from typing import Sequence

from repro.api.report import SolveReport
from repro.api.request import SolveRequest
from repro.exceptions import RejectedError, TransportError
from repro.sa.transport.protocol import Endpoint
from repro.service.wire import (
    KIND_ADVISE,
    KIND_ERROR,
    KIND_HELLO,
    KIND_HELLO_ACK,
    KIND_REJECTED,
    KIND_REPORT,
    KIND_SHUTDOWN,
    KIND_STATS,
    KIND_STATS_REPORT,
    SERVICE_ENVELOPE,
    SUPPORTED_PROTOCOL_VERSIONS,
    report_from_wire,
)


class ServiceClient:
    """One connection to an :class:`~repro.service.server.AdvisorServer`.

    Use as a context manager::

        with ServiceClient(host, port, client="tenant-a") as svc:
            report = svc.advise(request)
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client: str | None = None,
        timeout: float | None = 300.0,
    ):
        self.client = client
        self.timeout = timeout
        sock = socket.create_connection((host, port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.endpoint = Endpoint(sock)
        self.protocol_version: int | None = None
        self._next_id = 0
        self._handshake()

    def _handshake(self) -> None:
        hello: dict = {
            "protocol_versions": list(SUPPORTED_PROTOCOL_VERSIONS),
            "envelope": SERVICE_ENVELOPE,
        }
        if self.client:
            hello["client"] = self.client
        self.endpoint.send(KIND_HELLO, **hello)
        ack = self._recv()
        if ack.get("kind") == KIND_ERROR:
            raise TransportError(
                f"service refused the handshake: {ack.get('message')}"
            )
        if ack.get("kind") != KIND_HELLO_ACK:
            raise TransportError(
                f"expected {KIND_HELLO_ACK!r} frame, got "
                f"{ack.get('kind')!r}"
            )
        if ack.get("envelope") != SERVICE_ENVELOPE:
            raise TransportError(
                f"service speaks envelope {ack.get('envelope')!r}, this "
                f"client speaks {SERVICE_ENVELOPE!r}"
            )
        self.protocol_version = int(ack["protocol_version"])

    def _recv(self) -> dict:
        frame = self.endpoint.recv(self.timeout)
        if frame is None:
            raise TransportError(
                f"service did not answer within {self.timeout}s"
            )
        return frame

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def advise(self, request: SolveRequest) -> SolveReport:
        """Solve one request; blocks until the report arrives.

        Raises :class:`~repro.exceptions.RejectedError` when admission
        control refuses the request, :class:`TransportError` on a
        service-side error frame.
        """
        return self.advise_many([request])[0]

    def advise_many(
        self, requests: Sequence[SolveRequest]
    ) -> list[SolveReport]:
        """Pipeline several requests on this one connection.

        All requests are written before any answer is read, so
        identical requests in the batch coalesce server-side.  Answers
        arrive in any order (the ``id`` echo correlates them); the
        returned list matches the input order.  The first rejection or
        error is raised after every answer has been collected, so one
        rejected request does not desynchronise the stream.
        """
        ids = []
        for request in requests:
            self._next_id += 1
            ids.append(self._next_id)
            self.endpoint.send(
                KIND_ADVISE, id=self._next_id, request=request.to_dict()
            )
        answers: dict[int, dict] = {}
        while len(answers) < len(ids):
            frame = self._recv()
            frame_id = frame.get("id")
            if frame_id is None:
                raise TransportError(
                    f"service sent an uncorrelated {frame.get('kind')!r} "
                    f"frame mid-batch: {frame.get('message')!r}"
                )
            answers[int(frame_id)] = frame
        reports: list[SolveReport] = []
        failure: Exception | None = None
        for request_id in ids:
            frame = answers[request_id]
            kind = frame.get("kind")
            if kind == KIND_REPORT:
                reports.append(report_from_wire(frame["report"]))
            elif kind == KIND_REJECTED:
                failure = failure or RejectedError(
                    str(frame.get("reason")),
                    str(frame.get("message")),
                    retry_after=frame.get("retry_after"),
                )
            else:
                failure = failure or TransportError(
                    f"service error: {frame.get('message')}"
                )
        if failure is not None:
            raise failure
        return reports

    def stats(self) -> dict:
        """Fetch the service's counter document."""
        self.endpoint.send(KIND_STATS)
        frame = self._recv()
        if frame.get("kind") != KIND_STATS_REPORT:
            raise TransportError(
                f"expected {KIND_STATS_REPORT!r} frame, got "
                f"{frame.get('kind')!r}"
            )
        return frame["stats"]

    def shutdown(self) -> None:
        """Ask the server to drain and exit (acknowledged)."""
        self.endpoint.send(KIND_SHUTDOWN)
        frame = self._recv()
        if frame.get("kind") != KIND_SHUTDOWN:
            raise TransportError(
                f"expected {KIND_SHUTDOWN!r} ack, got "
                f"{frame.get('kind')!r}"
            )

    def close(self) -> None:
        self.endpoint.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
