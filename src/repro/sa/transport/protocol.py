"""Length-prefixed JSON frames, and the connect-time version handshake.

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
are identical bytes — which is what lets the fault harness target, say,
"the third RESULT frame" deterministically, and lets the driver treat a
re-sent task envelope as an idempotency key.

The task/result *envelopes* themselves (the JSON documents of the
envelope codec in :mod:`repro.sa.backends.queue`) ride inside
TASK/RESULT frames as strings, not as inlined objects: the envelope
bytes on the socket are exactly the bytes
:func:`~repro.sa.backends.queue.encode_restart_task` produced — the
same bytes the driver's own in-driver loop decodes — so the
cross-backend bitwise contract needs no re-proof here.

Version negotiation happens once per connection, before anything else:
the worker opens with a HELLO listing every protocol version it speaks
plus the envelope format version it was built with; the driver picks
the highest protocol version both sides share and echoes it in a
HELLO-ACK (along with the portfolio's heartbeat interval), or answers
with an ERROR frame and drops the connection when there is no overlap.
Envelope versions must match exactly — a worker that would re-encode
options differently cannot be trusted with bitwise determinism.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
from typing import Any

from repro.exceptions import ConnectionClosedError, TransportError

#: Protocol version this build speaks (and the list it will negotiate
#: from).  Bump when the frame layout or the frame-kind vocabulary
#: changes incompatibly.
PROTOCOL_VERSION = 1
SUPPORTED_PROTOCOL_VERSIONS = (1,)

#: Refuse frames larger than this (a corrupt length prefix otherwise
#: asks us to allocate gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

# -- frame kinds -------------------------------------------------------
KIND_HELLO = "hello"            # worker -> driver: version offer
KIND_HELLO_ACK = "hello-ack"    # driver -> worker: chosen version + config
KIND_TASK = "task"              # driver -> worker: one task envelope
KIND_ACK = "ack"                # worker -> driver: task frame received
KIND_RESULT = "result"          # worker -> driver: one result envelope
KIND_HEARTBEAT = "heartbeat"    # worker -> driver: liveness + current task
KIND_ERROR = "error"            # either way: structured failure report
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

    Sending is thread-safe (the worker's heartbeat ticker shares the
    socket with its task loop); receiving buffers partial frames so a
    frame split across TCP segments is reassembled transparently.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        self._buffer = bytearray()
        self._closed = False

    # -- sending -------------------------------------------------------
    def send(self, kind: str, **fields: Any) -> None:
        self.send_raw(encode_frame(kind, **fields))

    def send_raw(self, frame: bytes) -> None:
        """Send pre-encoded frame bytes (the fault layer's corrupt hook
        flips payload bytes here, after the length prefix is fixed)."""
        with self._send_lock:
            try:
                self.sock.sendall(frame)
            except OSError as error:
                raise ConnectionClosedError(
                    f"connection lost while sending ({error})"
                ) from error

    # -- receiving -----------------------------------------------------
    def _read_more(self, timeout: float | None) -> bool:
        """Pull more bytes into the buffer.  Returns False on timeout;
        raises ConnectionClosedError on EOF or a reset connection.

        Readiness comes from ``select`` rather than ``settimeout`` so
        the socket stays in blocking mode — a worker's heartbeat ticker
        sends on the same socket its task loop receives on, and a
        per-socket timeout would race between the two threads.
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
        driver calls this when ``selectors`` reports the socket ready)."""
        frames: list[dict[str, Any]] = []
        while True:
            frame = self._pop_frame()
            if frame is not None:
                frames.append(frame)
                continue
            if not self._read_more(0.0):
                return frames

    def fileno(self) -> int:
        return self.sock.fileno()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self.sock.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Version negotiation
# ----------------------------------------------------------------------
def negotiate_client(
    endpoint: Endpoint,
    envelope_version: int,
    timeout: float = 30.0,
) -> dict[str, Any]:
    """Worker-side handshake: offer versions, await the driver's pick.

    Returns the HELLO-ACK payload (carrying ``protocol_version`` and
    ``heartbeat_interval``).  Raises TransportError if the driver rejects
    us or the handshake times out.
    """
    endpoint.send(
        KIND_HELLO,
        protocol_versions=list(SUPPORTED_PROTOCOL_VERSIONS),
        envelope_version=envelope_version,
    )
    ack = endpoint.recv(timeout=timeout)
    if ack is None:
        raise TransportError(f"handshake timed out after {timeout}s")
    if ack["kind"] == KIND_ERROR:
        raise TransportError(
            f"driver rejected the connection: {ack.get('message')}"
        )
    if ack["kind"] != KIND_HELLO_ACK:
        raise TransportError(
            f"expected a {KIND_HELLO_ACK!r} frame, got {ack['kind']!r}"
        )
    chosen = ack.get("protocol_version")
    if chosen not in SUPPORTED_PROTOCOL_VERSIONS:
        raise TransportError(
            f"driver chose protocol version {chosen!r}, but this worker "
            f"speaks {sorted(SUPPORTED_PROTOCOL_VERSIONS)}"
        )
    return ack


def negotiate_server(
    endpoint: Endpoint,
    envelope_version: int,
    timeout: float = 30.0,
    **ack_fields: Any,
) -> int:
    """Driver-side handshake: read the worker's HELLO, pick a version.

    Picks the highest protocol version both sides share and answers
    with a HELLO-ACK carrying the chosen version plus ``ack_fields``
    (the heartbeat interval).  On a version
    mismatch the worker gets a structured ERROR frame *before* the
    TransportError is raised driver-side, so a newer/older worker fails
    with a message instead of a dead socket.
    """
    hello = endpoint.recv(timeout=timeout)
    if hello is None:
        raise TransportError(f"handshake timed out after {timeout}s")
    if hello["kind"] != KIND_HELLO:
        raise TransportError(
            f"expected a {KIND_HELLO!r} frame, got {hello['kind']!r}"
        )
    offered = hello.get("protocol_versions")
    if not isinstance(offered, list):
        raise TransportError("HELLO frame lacks a protocol_versions list")
    shared = sorted(set(offered) & set(SUPPORTED_PROTOCOL_VERSIONS))
    if not shared:
        message = (
            f"no shared protocol version: worker offers {sorted(offered)}, "
            f"driver speaks {sorted(SUPPORTED_PROTOCOL_VERSIONS)}"
        )
        endpoint.send(KIND_ERROR, message=message)
        raise TransportError(message)
    worker_envelope = hello.get("envelope_version")
    if worker_envelope != envelope_version:
        message = (
            f"envelope format version mismatch: worker writes version "
            f"{worker_envelope!r}, driver reads version {envelope_version} "
            f"(bitwise determinism needs an exact match)"
        )
        endpoint.send(KIND_ERROR, message=message)
        raise TransportError(message)
    chosen = shared[-1]
    endpoint.send(KIND_HELLO_ACK, protocol_version=chosen, **ack_fields)
    return chosen
