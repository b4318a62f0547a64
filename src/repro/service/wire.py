"""Service frames and the report codec.

The service speaks the exact frame *format* of the portfolio transport
(:mod:`repro.sa.transport.protocol`: 4-byte big-endian length prefix +
sorted-key UTF-8 JSON with a ``"kind"`` discriminator, 64MB cap), but
its peers are separate programs, so it has a handshake of its own: the
client offers the protocol versions it speaks
(:data:`SUPPORTED_PROTOCOL_VERSIONS`) and the envelope kind it expects
(:data:`SERVICE_ENVELOPE`), and a mismatched peer gets a structured
ERROR frame instead of mis-decoded frames.  ADVISE frames carry full
:class:`~repro.api.SolveRequest` documents and REPORT frames serialised
:class:`~repro.api.SolveReport` documents.

Report codec
------------

``report_to_wire`` keeps only JSON-faithful fields: placements as 0/1
lists, the objective as a float (Python's JSON round-trips floats
exactly via shortest-repr), metadata with numpy scalars/arrays
converted to their Python equivalents.  ``report_from_wire`` rebuilds a
fully functional :class:`~repro.api.SolveReport` — coefficients are
reconstructed canonically from the request's instance and parameters,
and the feasibility check in
:class:`~repro.partition.assignment.PartitioningResult` runs again on
the client side.  Metadata values that were numpy arrays come
back as lists (they have no declared dtype on the wire); everything the
bitwise contract covers — placements, objective, strategy, seeds —
round-trips exactly.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np

from repro.api.report import SolveReport
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import build_coefficients
from repro.exceptions import TransportError
from repro.partition.assignment import PartitioningResult
from repro.sa.transport.protocol import (
    MAX_FRAME_BYTES,
    _LENGTH,
    decode_payload,
    encode_frame,
)

#: Protocol versions this service build speaks (the handshake picks the
#: highest one both sides share).  Bump when the frame layout or the
#: frame-kind vocabulary changes incompatibly.
SUPPORTED_PROTOCOL_VERSIONS = (1,)

#: The envelope kind this service build speaks; the handshake requires
#: an exact match (a mismatched peer gets a structured ERROR frame).
SERVICE_ENVELOPE = "solve-report/1"

#: Version stamp of the serialised report document.
REPORT_FORMAT_VERSION = 1

# -- frame kinds -------------------------------------------------------
KIND_HELLO = "hello"                # client -> server: version offer
KIND_HELLO_ACK = "hello-ack"        # server -> client: chosen version
KIND_ADVISE = "advise"              # client -> server: one SolveRequest
KIND_REPORT = "report"              # server -> client: one SolveReport
KIND_REJECTED = "rejected"          # server -> client: admission refused
KIND_STATS = "stats"                # client -> server: stats probe
KIND_STATS_REPORT = "stats-report"  # server -> client: stats document
KIND_ERROR = "error"                # either way: structured failure
KIND_SHUTDOWN = "shutdown"          # client -> server: drain and exit


# ----------------------------------------------------------------------
# Async frame IO (the sync side reuses transport's Endpoint directly)
# ----------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any]:
    """Read one frame from an asyncio stream.

    Raises :class:`~repro.exceptions.TransportError` on a corrupt
    length prefix or undecodable payload, and
    ``asyncio.IncompleteReadError`` when the peer goes away mid-frame.
    """
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame announces {length} bytes, over MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}) — corrupt length prefix?"
        )
    data = await reader.readexactly(length)
    return decode_payload(data)


async def write_frame(
    writer: asyncio.StreamWriter, kind: str, **fields: Any
) -> None:
    """Encode and send one frame, draining the transport buffer."""
    writer.write(encode_frame(kind, **fields))
    await writer.drain()


# ----------------------------------------------------------------------
# Report codec
# ----------------------------------------------------------------------
def jsonify(value: Any) -> Any:
    """Convert numpy scalars/arrays (recursively) to JSON-safe values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return value


def result_to_wire(result: PartitioningResult) -> dict[str, Any]:
    """One :class:`PartitioningResult` as a JSON-compatible document."""
    return {
        "x": np.asarray(result.x, dtype=int).tolist(),
        "y": np.asarray(result.y, dtype=int).tolist(),
        "objective": float(result.objective),
        "solver": result.solver,
        "wall_time": float(result.wall_time),
        "proven_optimal": bool(result.proven_optimal),
        "metadata": jsonify(result.metadata),
    }


def result_from_wire(
    payload: dict[str, Any], coefficients: Any
) -> PartitioningResult:
    return PartitioningResult(
        coefficients=coefficients,
        x=np.asarray(payload["x"], dtype=bool),
        y=np.asarray(payload["y"], dtype=bool),
        objective=float(payload["objective"]),
        solver=str(payload["solver"]),
        wall_time=float(payload.get("wall_time", 0.0)),
        proven_optimal=bool(payload.get("proven_optimal", False)),
        metadata=dict(payload.get("metadata") or {}),
    )


def report_to_wire(report: SolveReport) -> dict[str, Any]:
    """Serialise a :class:`SolveReport` for a REPORT frame."""
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "request": report.request.to_dict(),
        "strategy": report.strategy,
        "wall_time": float(report.wall_time),
        "cache_stats": {
            key: int(value) for key, value in report.cache_stats.items()
        },
        "result": result_to_wire(report.result),
        "stage_results": [
            result_to_wire(stage) for stage in report.stage_results
        ],
    }


def report_from_wire(payload: dict[str, Any]) -> SolveReport:
    """Rebuild a functional :class:`SolveReport` from a REPORT frame."""
    version = payload.get("format_version")
    if version != REPORT_FORMAT_VERSION:
        raise TransportError(
            f"unsupported report format_version {version!r} (this build "
            f"reads version {REPORT_FORMAT_VERSION})"
        )
    request = SolveRequest.from_dict(payload["request"])
    # Rebuilt canonically: the wire carries (instance, parameters),
    # never raw coefficient arrays.
    coefficients = build_coefficients(request.instance, request.parameters)
    return SolveReport(
        request=request,
        result=result_from_wire(payload["result"], coefficients),
        strategy=str(payload["strategy"]),
        wall_time=float(payload.get("wall_time", 0.0)),
        cache_stats=dict(payload.get("cache_stats") or {}),
        stage_results=[
            result_from_wire(stage, coefficients)
            for stage in payload.get("stage_results") or []
        ],
    )
