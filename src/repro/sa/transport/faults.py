"""Deterministic fault injection at the transport's protocol layer.

A :class:`FaultPlan` is a seedable, JSON-serialisable schedule of
failures — "drop the first RESULT frame of connection 0", "kill worker 1
while it sends its second result", "stall worker 0's heartbeat from the
third beat on" — that the socket backend and its workers *replay
exactly*.  Because the schedule is data, every chaos test is
reproducible from its seed alone: the assertion is always the same,
that the portfolio's best is bitwise identical to the serial backend's
despite the faults.

Fault sites:

* **endpoint faults** (``drop`` / ``delay`` / ``duplicate`` /
  ``corrupt``) are applied on the *driver's* side of a connection by
  wrapping it in a :class:`FaultyEndpoint` — ``direction="send"``
  mangles driver→worker frames (tasks),
  ``direction="recv"`` mangles worker→driver frames (results, acks,
  heartbeats) as they are popped off the buffer;
* **worker faults** (``kill-worker`` / ``stall-heartbeat``) ship to the
  worker process (``--fault-plan`` on its command line) and fire inside
  it: a kill raises :class:`FaultInjected` as the worker is about to
  send the matched frame — dying abruptly mid-restart, connection and
  all — and a stall silently swallows every heartbeat from the matched
  index on while the worker otherwise keeps running, which is exactly
  the failure the liveness monitor exists to catch.

Faults target one ``connection`` ordinal (the order connections were
accepted / workers were spawned).  Replacement workers get fresh, higher
ordinals, so a kill schedule terminates: the respawned worker runs the
requeued restart clean instead of dying in a loop.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import OptionsError
from repro.sa.transport.protocol import (
    Endpoint,
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_TASK,
    encode_frame,
)

#: Faults applied by the driver's endpoint wrapper.
ENDPOINT_ACTIONS = frozenset({"drop", "delay", "duplicate", "corrupt"})
#: Faults shipped to and fired inside the worker process.
WORKER_ACTIONS = frozenset({"kill-worker", "stall-heartbeat"})
ACTIONS = ENDPOINT_ACTIONS | WORKER_ACTIONS


class FaultInjected(Exception):
    """Raised inside a worker when its fault plan says: die here."""


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``index`` counts frames of ``kind`` flowing in ``direction`` on the
    targeted ``connection`` (0-based); the fault fires on the matching
    frame — sticky from there on for ``stall-heartbeat``, one-shot for
    everything else.
    """

    action: str
    kind: str = KIND_RESULT
    direction: str = "recv"  # from the driver's perspective
    index: int = 0
    connection: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise OptionsError(
                f"unknown fault action {self.action!r}; "
                f"known: {', '.join(sorted(ACTIONS))}"
            )
        if self.direction not in ("send", "recv"):
            raise OptionsError(
                f"fault direction must be 'send' or 'recv', "
                f"got {self.direction!r}"
            )
        if self.index < 0 or self.connection < 0 or self.delay < 0:
            raise OptionsError(
                "fault index/connection/delay must be non-negative"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, serialisable for the CLI."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def endpoint_faults(self, connection: int) -> list[Fault]:
        """Driver-side faults targeting connection ordinal ``connection``."""
        return [
            fault
            for fault in self.faults
            if fault.action in ENDPOINT_ACTIONS
            and fault.connection == connection
        ]

    def worker_faults(self, connection: int) -> list[Fault]:
        """Worker-side faults for the worker spawned as ``connection``."""
        return [
            fault
            for fault in self.faults
            if fault.action in WORKER_ACTIONS
            and fault.connection == connection
        ]

    # -- serialisation (rides on the worker command line) --------------
    def to_json(self) -> str:
        return json.dumps(
            {"faults": [asdict(fault) for fault in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
            faults = tuple(Fault(**entry) for entry in payload["faults"])
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise OptionsError(
                f"undecodable fault plan ({type(error).__name__}: {error})"
            ) from error
        return cls(faults=faults)

    @classmethod
    def random(
        cls, seed: int, faults: int = 3, connections: int = 2
    ) -> "FaultPlan":
        """A deterministic plan of ``faults`` failures drawn from ``seed``.

        Every action class can appear; kinds are drawn to match the
        direction traffic actually flows (results/acks/heartbeats
        driver-bound, tasks worker-bound), so a random plan always
        targets frames that exist.
        """
        rng = np.random.default_rng(seed)
        recv_kinds = ("result", "ack", "heartbeat")
        drawn = []
        actions = sorted(ACTIONS)
        for _ in range(faults):
            action = actions[int(rng.integers(len(actions)))]
            connection = int(rng.integers(connections))
            index = int(rng.integers(3))
            if action == "kill-worker":
                kind, direction = KIND_RESULT, "recv"
            elif action == "stall-heartbeat":
                kind, direction = KIND_HEARTBEAT, "recv"
            elif rng.random() < 0.7:
                kind = recv_kinds[int(rng.integers(len(recv_kinds)))]
                direction = "recv"
            else:
                kind, direction = KIND_TASK, "send"
            delay = round(float(rng.uniform(0.0, 0.05)), 4)
            drawn.append(
                Fault(
                    action=action,
                    kind=kind,
                    direction=direction,
                    index=index,
                    connection=connection,
                    delay=delay,
                )
            )
        return cls(faults=tuple(drawn))


def _corrupt(frame: bytes) -> bytes:
    """Flip bits in the payload (never the length prefix, so the
    receiver reads a complete frame and fails *decoding* it)."""
    mangled = bytearray(frame)
    for offset in range(4, min(len(mangled), 12)):
        mangled[offset] ^= 0xFF
    return bytes(mangled)


class FaultyEndpoint(Endpoint):
    """An :class:`~repro.sa.transport.protocol.Endpoint` that replays a
    fault schedule.

    ``side="driver"`` applies the endpoint faults (drop / delay /
    duplicate / corrupt, both directions); ``side="worker"`` applies the
    worker faults (kill-worker raises :class:`FaultInjected` on the
    matched outgoing frame, stall-heartbeat swallows outgoing heartbeats
    from the matched index on).  Frame counters are per endpoint — i.e.
    per connection — matching :class:`Fault`'s addressing.
    """

    def __init__(
        self,
        sock: socket.socket,
        faults: list[Fault],
        side: str = "driver",
    ):
        super().__init__(sock)
        if side not in ("driver", "worker"):
            raise OptionsError(f"side must be 'driver' or 'worker', got {side!r}")
        self.side = side
        self.faults = list(faults)
        self._counts: dict[tuple[str, str], int] = {}
        self._replay: list[dict[str, Any]] = []

    def _next_index(self, direction: str, kind: str) -> int:
        key = (direction, kind)
        index = self._counts.get(key, 0)
        self._counts[key] = index + 1
        return index

    def _matching(self, direction: str, kind: str, index: int) -> list[Fault]:
        return [
            fault
            for fault in self.faults
            if fault.direction == direction
            and fault.kind == kind
            and (
                index >= fault.index
                if fault.action == "stall-heartbeat"
                else index == fault.index
            )
        ]

    # -- outgoing ------------------------------------------------------
    def send(self, kind: str, **fields: Any) -> None:
        index = self._next_index("send" if self.side == "driver" else "recv", kind)
        # Worker-side frames flow driver-ward, so they match "recv"
        # faults — the direction is always the driver's perspective.
        matched = self._matching(
            "send" if self.side == "driver" else "recv", kind, index
        )
        if self.side == "worker":
            for fault in matched:
                if fault.action == "kill-worker":
                    raise FaultInjected(
                        f"fault plan kills this worker at {kind} #{index}"
                    )
                if fault.action == "stall-heartbeat":
                    return  # swallowed: alive but silent
            super().send(kind, **fields)
            return
        frame = encode_frame(kind, **fields)
        for fault in matched:
            if fault.action == "drop":
                return
            if fault.action == "delay":
                time.sleep(fault.delay)
            elif fault.action == "corrupt":
                frame = _corrupt(frame)
            elif fault.action == "duplicate":
                self.send_raw(frame)
        self.send_raw(frame)

    # -- incoming (driver side only) -----------------------------------
    def _pop_frame(self) -> dict[str, Any] | None:
        if self._replay:
            return self._replay.pop(0)
        while True:
            frame = super()._pop_frame()
            if frame is None:
                return None
            if self.side != "driver":
                return frame
            kind = frame.get("kind", "")
            index = self._next_index("recv", kind)
            dropped = False
            for fault in self._matching("recv", kind, index):
                if fault.action == "drop":
                    dropped = True
                elif fault.action == "delay":
                    time.sleep(fault.delay)
                elif fault.action == "duplicate":
                    self._replay.append(frame)
                elif fault.action == "corrupt":
                    # The bytes arrived fine; simulate the decode blowing
                    # up, which the driver treats as a dead connection.
                    from repro.exceptions import TransportError

                    raise TransportError(
                        f"injected corruption on {kind} frame #{index}"
                    )
            if not dropped:
                return frame
