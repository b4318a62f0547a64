"""Length-prefixed JSON frames between the driver and its workers.

Wire layout (one *frame*)::

    +----------------+---------------------------+
    | length: !I     | payload: UTF-8 JSON text  |
    +----------------+---------------------------+
      4 bytes,          exactly ``length`` bytes,
      big-endian,        one JSON object with a
      payload size       ``"kind"`` member

Every message between the driver and a worker is one frame; the JSON
payload always carries a ``"kind"`` discriminator (one of the ``KIND_*``
constants below) and is dumped with sorted keys so identical messages
are identical bytes.

A worker is a fork of the driver: both ends run the same code, so
there is nothing to negotiate.  Frames name the restart they concern
and nothing else identifies a task: a TASK frame names only the
restart, because the worker already holds the portfolio's plan; a
HEARTBEAT carries the restart and its iteration count; a RESULT frame
carries the finished restart's outcome fields, with the placements as
0/1 lists.
"""

from __future__ import annotations

import json
import select
import socket
import struct
from typing import Any

from repro.exceptions import ConnectionClosedError, TransportError

#: Refuse frames larger than this (a corrupt length prefix otherwise
#: asks us to allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

# -- frame kinds -------------------------------------------------------
KIND_TASK = "task"              # driver -> worker: one restart to run
KIND_RESULT = "result"          # worker -> driver: one restart outcome
KIND_HEARTBEAT = "heartbeat"    # worker -> driver: the anneal progresses
KIND_ERROR = "error"            # worker -> driver: the restart raised
KIND_SHUTDOWN = "shutdown"      # driver -> worker: drain and exit


def encode_frame(kind: str, **fields: Any) -> bytes:
    """Encode one frame (length prefix + sorted-key JSON payload)."""
    payload = dict(fields)
    payload["kind"] = kind
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(data)) + data


def decode_payload(data: bytes) -> dict[str, Any]:
    """Decode one frame payload; raises TransportError on garbage."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(
            f"undecodable frame payload ({type(error).__name__}: {error})"
        ) from error
    if not isinstance(payload, dict) or "kind" not in payload:
        raise TransportError(
            "frame payload is not a JSON object with a 'kind' member"
        )
    return payload


class Endpoint:
    """One side of a framed connection over a connected socket.

    One thread uses an endpoint: a worker sends its heartbeats from the
    anneal loop, between the frames of its task loop.  Receiving
    buffers partial frames so a frame split across stream reads is
    reassembled transparently.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()
        self._closed = False

    # -- sending -------------------------------------------------------
    def send(self, kind: str, **fields: Any) -> None:
        try:
            self.sock.sendall(encode_frame(kind, **fields))
        except OSError as error:
            raise ConnectionClosedError(
                f"connection lost while sending ({error})"
            ) from error

    # -- receiving -----------------------------------------------------
    def _read_more(self, timeout: float | None) -> bool:
        """Pull more bytes into the buffer.  Returns False on timeout;
        raises ConnectionClosedError on EOF or a reset connection.

        Readiness comes from ``select`` rather than ``settimeout`` so
        the socket stays in blocking mode and a receive timeout never
        cuts a later ``sendall`` short.
        """
        try:
            ready, _, _ = select.select([self.sock], [], [], timeout)
            if not ready:
                return False
            chunk = self.sock.recv(65536)
        except OSError as error:
            raise ConnectionClosedError(
                f"connection lost while receiving ({error})"
            ) from error
        if not chunk:
            raise ConnectionClosedError("peer closed the connection")
        self._buffer.extend(chunk)
        return True

    def _pop_frame(self) -> dict[str, Any] | None:
        """Decode one complete frame from the buffer, if present."""
        if len(self._buffer) < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame announces {length} bytes, over MAX_FRAME_BYTES "
                f"({MAX_FRAME_BYTES}) — corrupt length prefix?"
            )
        end = _LENGTH.size + length
        if len(self._buffer) < end:
            return None
        data = bytes(self._buffer[_LENGTH.size:end])
        del self._buffer[:end]
        return decode_payload(data)

    def recv(self, timeout: float | None = None) -> dict[str, Any] | None:
        """Receive one frame; ``None`` when ``timeout`` elapses first.

        Raises :class:`~repro.exceptions.ConnectionClosedError` when the
        peer goes away and :class:`~repro.exceptions.TransportError` on
        an undecodable frame.
        """
        while True:
            frame = self._pop_frame()
            if frame is not None:
                return frame
            if not self._read_more(timeout):
                return None

    def receive_available(self) -> list[dict[str, Any]]:
        """Drain every frame that can be had without blocking (the
        driver calls this when ``selectors`` reports the socket ready).

        Frames that arrived before the peer closed are returned first;
        the next call raises the close.
        """
        frames: list[dict[str, Any]] = []
        while True:
            frame = self._pop_frame()
            if frame is not None:
                frames.append(frame)
                continue
            try:
                if not self._read_more(0.0):
                    return frames
            except ConnectionClosedError:
                if frames:
                    return frames
                raise

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.close()
            except OSError:
                pass

