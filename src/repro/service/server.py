"""The asyncio socket front end: a frame pump over :class:`AsyncAdvisor`.

One server owns one :class:`~repro.service.core.AsyncAdvisor` and
serves any number of loopback connections.  Each connection starts with
the HELLO handshake (protocol versions shared with the portfolio
transport, the service's own envelope kind), then carries ADVISE /
STATS / SHUTDOWN frames.  Every ADVISE frame is handled in its own
task, so one connection can pipeline requests — and identical requests
from *different* connections coalesce in the shared facade, which is
the point of a front end over per-process solvers.

Frames answered per request (all carry the request's ``id`` echo):

* ``report`` — the serialised :class:`~repro.api.SolveReport`;
* ``rejected`` — admission control refused it (``reason`` is
  ``"queue-full"`` or ``"rate-limited"``; ``retry_after`` seconds when
  known);
* ``error`` — the request was undecodable or the solve raised.

:class:`ServerThread` hosts the whole loop on a daemon thread for the
synchronous world (tests, the CLI's one-shot ``request`` command
against an in-process server).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.api.advisor import Advisor
from repro.api.request import SolveRequest
from repro.exceptions import RejectedError, ReproError, TransportError
from repro.service.config import ServiceConfig
from repro.service.core import AsyncAdvisor
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
    read_frame,
    report_to_wire,
    write_frame,
)


class AdvisorServer:
    """Serve :class:`SolveRequest` frames over loopback TCP."""

    def __init__(
        self,
        service: AsyncAdvisor | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: ServiceConfig | None = None,
        advisor: Advisor | None = None,
    ):
        self.service = service or AsyncAdvisor(advisor, config)
        self.host = host
        self.port = port  # 0 until started; then the bound port
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self._connections = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AdvisorServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Block until a SHUTDOWN frame (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        await self.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    # ------------------------------------------------------------------
    # one connection
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        default_client = f"conn-{self._connections}"
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task[None]] = set()
        try:
            client = await self._handshake(reader, writer, default_client)
            if client is None:
                return
            while True:
                frame = await read_frame(reader)
                kind = frame.get("kind")
                if kind == KIND_ADVISE:
                    task = asyncio.ensure_future(
                        self._serve_advise(frame, writer, write_lock, client)
                    )
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif kind == KIND_STATS:
                    async with write_lock:
                        await write_frame(
                            writer, KIND_STATS_REPORT,
                            stats=self.service.stats(),
                        )
                elif kind == KIND_SHUTDOWN:
                    async with write_lock:
                        await write_frame(writer, KIND_SHUTDOWN)
                    self.request_shutdown()
                    return
                else:
                    async with write_lock:
                        await write_frame(
                            writer, KIND_ERROR,
                            message=f"unexpected frame kind {kind!r}",
                        )
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away; in-flight answers have nowhere to go
        except TransportError:
            pass  # corrupt frame; drop the connection
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        default_client: str,
    ) -> str | None:
        """Validate the HELLO; returns the client id, or ``None`` when
        the connection was refused (after a structured ERROR frame)."""
        hello = await read_frame(reader)
        if hello.get("kind") != KIND_HELLO:
            await write_frame(
                writer, KIND_ERROR,
                message=f"expected a {KIND_HELLO!r} frame, got "
                        f"{hello.get('kind')!r}",
            )
            return None
        offered = hello.get("protocol_versions")
        shared = sorted(
            set(offered or ()) & set(SUPPORTED_PROTOCOL_VERSIONS)
        )
        if not shared:
            await write_frame(
                writer, KIND_ERROR,
                message=f"no shared protocol version: client offers "
                        f"{offered!r}, server speaks "
                        f"{sorted(SUPPORTED_PROTOCOL_VERSIONS)}",
            )
            return None
        envelope = hello.get("envelope")
        if envelope != SERVICE_ENVELOPE:
            await write_frame(
                writer, KIND_ERROR,
                message=f"envelope kind mismatch: client speaks "
                        f"{envelope!r}, this service speaks "
                        f"{SERVICE_ENVELOPE!r} (is a restart worker "
                        f"dialling the service port?)",
            )
            return None
        await write_frame(
            writer, KIND_HELLO_ACK,
            protocol_version=shared[-1],
            envelope=SERVICE_ENVELOPE,
        )
        client = hello.get("client")
        return str(client) if client else default_client

    async def _serve_advise(
        self,
        frame: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        client: str,
    ) -> None:
        request_id = frame.get("id")
        try:
            request = SolveRequest.from_dict(frame["request"])
        except (ReproError, KeyError, TypeError, ValueError) as error:
            async with write_lock:
                await write_frame(
                    writer, KIND_ERROR, id=request_id,
                    message=f"undecodable request: {error}",
                )
            return
        try:
            report = await self.service.submit(request, client=client)
        except RejectedError as rejection:
            async with write_lock:
                await write_frame(
                    writer, KIND_REJECTED, id=request_id,
                    reason=rejection.reason,
                    retry_after=rejection.retry_after,
                    message=str(rejection),
                )
            return
        except ReproError as error:
            async with write_lock:
                await write_frame(
                    writer, KIND_ERROR, id=request_id,
                    message=f"{type(error).__name__}: {error}",
                )
            return
        async with write_lock:
            await write_frame(
                writer, KIND_REPORT, id=request_id,
                report=report_to_wire(report),
            )


async def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServiceConfig | None = None,
    advisor: Advisor | None = None,
    ready: "asyncio.Future[AdvisorServer] | None" = None,
    announce: bool = False,
) -> None:
    """Start a server and run it until a SHUTDOWN frame.

    ``ready`` (when given) resolves with the started server — its
    ``port`` holds the bound port; ``announce`` prints the classic
    ``listening on HOST:PORT`` line for script consumers.
    """
    server = AdvisorServer(host=host, port=port, config=config,
                           advisor=advisor)
    await server.start()
    if ready is not None:
        ready.set_result(server)
    if announce:
        print(f"repro advisor service listening on "
              f"{server.host}:{server.port}", flush=True)
    await server.serve_until_shutdown()


class ServerThread:
    """Host an :class:`AdvisorServer` on a daemon thread.

    For synchronous callers (tests, benches, the CLI): ``start()``
    returns once the port is bound; ``stop()`` shuts the loop down and
    joins the thread.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        config: ServiceConfig | None = None,
        advisor: Advisor | None = None,
    ):
        self.host = host
        self.port: int | None = None
        self._config = config
        self._advisor = advisor
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: AdvisorServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="advisor-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TransportError(
                f"service thread failed to bind within {timeout}s"
            )
        if self._failure is not None:
            raise TransportError(
                f"service thread failed to start: {self._failure}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                AdvisorServer(
                    host=self.host, config=self._config,
                    advisor=self._advisor,
                ).start()
            )
            self._server = server
            self.port = server.port
            self._started.set()
            loop.run_until_complete(server.serve_until_shutdown())
        except BaseException as error:  # surfaced by start()
            self._failure = error
            self._started.set()
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self._server.request_shutdown
                )
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
