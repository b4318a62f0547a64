"""The execution-backend contract of the restart portfolio.

A portfolio run is a list of :class:`RestartTask`\\ s — pure
``(index, seed)`` functions of the shipped coefficients — plus the
shared budget bundled into a :class:`PortfolioPlan`.
An :class:`ExecutionBackend` consumes the plan and returns a
:class:`BackendRun`; *how* the restarts execute (in-process, across a
worker pool, or shipped as serialised task envelopes) is the backend's
business, but every backend must preserve the portfolio contract:

* restarts it runs are executed with exactly the single-run options
  produced by :func:`restart_options` — so any two backends produce
  bitwise-identical :class:`RestartOutcome`\\ s for the same task;
* the best-of-N winner is chosen by the *caller*
  (:func:`repro.sa.portfolio.run_portfolio`) as the minimum of
  ``(objective6, restart_index)`` over the completed outcomes, so
  completion order never matters;
* a backend may *skip* work — restarts cancelled by the deadline — but
  it must never return a different outcome for work it does run.

Backends register under a name (:func:`register_backend`) and are
selected through ``SaOptions(backend=...)``; see
:mod:`repro.sa.backends` for the built-ins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import OptionsError
from repro.sa.options import SaOptions


@dataclass(frozen=True)
class RestartTask:
    """One unit of portfolio work: restart ``restart`` under ``seed``."""

    restart: int
    seed: int | None


@dataclass(frozen=True)
class RestartOutcome:
    """Result of one annealing restart inside a portfolio."""

    restart: int
    seed: int | None
    x: np.ndarray
    y: np.ndarray
    objective6: float
    iterations: int
    accepted: int
    accepted_worse: int
    outer_loops: int
    wall_time: float


@dataclass
class PortfolioPlan:
    """Everything a backend needs to execute one portfolio.

    The plan owns the shared wall-clock ``deadline``
    (``time.monotonic`` based, ``None`` = unlimited).
    """

    coefficients: CostCoefficients
    num_sites: int
    options: SaOptions
    seeds: list[int | None]
    deadline: float | None = None

    @property
    def jobs(self) -> int:
        """Worker slots actually usable (never more than tasks)."""
        return max(1, min(self.options.jobs, len(self.seeds)))

    def tasks(self) -> list[RestartTask]:
        return [
            RestartTask(restart=index, seed=seed)
            for index, seed in enumerate(self.seeds)
        ]

    def expired(self) -> bool:
        """True once the portfolio deadline has passed."""
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> float | None:
        """Seconds left of the portfolio budget (``None`` = unlimited)."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.monotonic(), 0.0)


@dataclass
class BackendRun:
    """What a backend hands back: outcomes plus the skip accounting."""

    outcomes: list[RestartOutcome]
    #: Restarts skipped because the deadline expired before they started.
    cancelled: int = 0
    #: Executor label for result metadata ("serial", "process", ...).
    kind: str = "serial"
    #: Distinct restarts that needed at least one retry (fault-tolerant
    #: backends only; always 0 for serial/process).
    retried_restarts: int = 0
    #: Total restart requeues — failed or lost attempts that were
    #: re-dispatched (bounded per restart by ``max_retries``).
    requeue_count: int = 0
    #: Worker failures observed: faulted task runs, dead connections,
    #: stalled heartbeats.
    worker_failures: int = 0


@runtime_checkable
class ExecutionBackend(Protocol):
    """The pluggable portfolio executor.

    Implementations run (a subset of) ``plan.tasks()`` and return a
    :class:`BackendRun`.  Restart 0 must never be cancelled
    outright by a backend — the caller guarantees a solution by running
    it inline if a degenerate budget cancelled everything, but a
    well-behaved backend runs it itself whenever the budget allows.
    """

    #: Registry name of the backend.
    name: str

    def run(self, plan: PortfolioPlan) -> BackendRun:  # pragma: no cover
        ...


#: Knobs that configure the *portfolio* or its transport, not a single
#: anneal — reset to their defaults by :func:`restart_options` so a task
#: envelope is a pure function of the anneal-relevant options (two
#: portfolios that differ only in retry/heartbeat tuning dispatch
#: byte-identical task envelopes).
_PORTFOLIO_LEVEL_FIELDS = (
    "restarts",
    "jobs",
    "portfolio_time_limit",
    "backend",
    "workers",
    "max_retries",
    "heartbeat_interval",
    "heartbeat_timeout",
    "backoff_base",
)


def _portfolio_level_defaults() -> dict:
    from dataclasses import fields

    return {
        f.name: f.default
        for f in fields(SaOptions)
        if f.name in _PORTFOLIO_LEVEL_FIELDS
    }


def restart_options(
    options: SaOptions, seed: int | None, remaining: float | None
) -> SaOptions:
    """Single-run options for one restart under the portfolio budget.

    Strips every portfolio-level knob (``restarts``, ``jobs``,
    ``portfolio_time_limit``, ``backend``, and the transport
    tuning — ``workers``, ``max_retries``, heartbeat/backoff settings)
    so the task is a plain single anneal, and folds the remaining
    portfolio budget into the per-run ``time_limit``.
    """
    time_limit = options.time_limit
    if remaining is not None:
        remaining = max(remaining, 0.0)
        time_limit = remaining if time_limit is None else min(time_limit, remaining)
    return replace(
        options,
        seed=seed,
        time_limit=time_limit,
        **_portfolio_level_defaults(),
    )


def run_restart(
    coefficients: CostCoefficients,
    num_sites: int,
    options: SaOptions,
    restart: int,
    seed: int | None,
    deadline: float | None,
) -> RestartOutcome:
    """Run one restart (worker side); honours the shared deadline."""
    from repro.sa.annealer import SimulatedAnnealer

    remaining = None if deadline is None else deadline - time.monotonic()
    started = time.perf_counter()
    annealer = SimulatedAnnealer(
        coefficients, num_sites, restart_options(options, seed, remaining)
    )
    x, y, objective6 = annealer.run()
    return RestartOutcome(
        restart=restart,
        seed=seed,
        x=x,
        y=y,
        objective6=objective6,
        iterations=annealer.trace.iterations,
        accepted=annealer.trace.accepted,
        accepted_worse=annealer.trace.accepted_worse,
        outer_loops=annealer.trace.outer_loops,
        wall_time=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register an execution backend under ``name``.

    ``factory`` is called once per portfolio run and must return a fresh
    :class:`ExecutionBackend`.  Registering an existing name replaces
    the previous backend (so tests can shadow built-ins).
    """
    if not name or not isinstance(name, str):
        raise OptionsError(f"backend name must be a non-empty string, got {name!r}")
    _BACKENDS[name] = factory


def backend_names() -> list[str]:
    """Sorted names of all registered execution backends."""
    return sorted(_BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise OptionsError(
            f"unknown execution backend {name!r}; registered: {known}"
        ) from None
    return factory()
