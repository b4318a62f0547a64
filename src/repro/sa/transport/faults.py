"""Deterministic fault injection into the process backend's workers.

A :class:`FaultPlan` is a seedable schedule of the failures a forked
worker can suffer — "kill worker 1 while it sends its first result",
"block worker 0's main thread at its third progress call" — that the
workers *replay exactly*.  Because the schedule is data, every chaos
test is reproducible from its seed alone: the assertion is always the
same, that the portfolio's best is bitwise identical to the serial
backend's despite the faults.

The two actions fire inside the worker session
(:mod:`repro.sa.worker`):

* ``kill-worker`` raises :class:`FaultInjected` as the worker is about
  to send its ``index``-th RESULT frame, so the forked process exits
  with the result computed but unsent — the worst-timed crash;
* ``block`` blocks the worker's main thread forever at its ``index``-th
  progress call.  It counts calls, not sent heartbeats, so it fires at
  the same point of the anneal whatever the beat spacing; the worker
  then goes silent, which is exactly the failure the liveness sweep
  exists to catch.

Faults target one ``connection`` ordinal (the order workers were
spawned) and count frames or calls over that worker's whole life.
Replacement workers get fresh, higher ordinals, so a fault schedule
terminates: the respawned worker runs the requeued restart clean
instead of failing in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import OptionsError

ACTIONS = ("block", "kill-worker")


class FaultInjected(Exception):
    """Raised inside a worker when its fault plan says: die here."""


@dataclass(frozen=True)
class Fault:
    """One scheduled failure of worker ``connection`` (see the module
    docstring for what ``index`` counts per action)."""

    action: str
    connection: int = 0
    index: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise OptionsError(
                f"unknown fault action {self.action!r}; "
                f"known: {', '.join(ACTIONS)}"
            )
        if self.index < 0 or self.connection < 0:
            raise OptionsError("fault index/connection must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults."""

    faults: tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def worker_faults(self, connection: int) -> list[Fault]:
        """Faults for the worker spawned as ``connection``."""
        return [fault for fault in self.faults if fault.connection == connection]

    @classmethod
    def random(
        cls, seed: int, faults: int = 3, connections: int = 2
    ) -> "FaultPlan":
        """A deterministic plan of ``faults`` failures drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        drawn = []
        for _ in range(faults):
            action = ACTIONS[int(rng.integers(len(ACTIONS)))]
            drawn.append(
                Fault(
                    action=action,
                    connection=int(rng.integers(connections)),
                    index=int(rng.integers(3)),
                )
            )
        return cls(faults=tuple(drawn))
