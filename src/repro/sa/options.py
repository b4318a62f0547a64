"""Tuning knobs of the SA solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import OptionsError

#: Section 5.1: accept a solution that is WORSE_FRACTION worse with
#: ACCEPT_PROBABILITY in the first iterations; fixes the initial
#: temperature tau = -WORSE_FRACTION * C* / ln(ACCEPT_PROBABILITY).
INITIAL_WORSE_FRACTION = 0.05
INITIAL_ACCEPT_PROBABILITY = 0.5


@dataclass(frozen=True)
class SaOptions:
    """Options for :class:`~repro.sa.annealer.SimulatedAnnealer`.

    Defaults follow the paper where it is specific (10% neighbourhood
    moves, Section 5.1 temperature rule) and common SA practice where it
    is not (cooling rate, loop counts).
    """

    #: Number of inner-loop iterations L per temperature level.
    inner_loops: int = 20
    #: Geometric cooling factor rho in (0, 1).
    cooling_rate: float = 0.9
    #: Fraction of transactions/attributes perturbed per move (paper: 10%).
    move_fraction: float = 0.1
    #: Freeze when tau falls below ``initial_tau * freeze_ratio``.
    freeze_ratio: float = 1e-3
    #: Hard cap on outer (temperature) loops.
    max_outer_loops: int = 60
    #: Stop after this many outer loops without improving the best cost.
    patience: int = 10
    #: Wall-clock budget in seconds per annealing run (None = unlimited;
    #: 0 is legal and exits straight through the collapsed-layout guard).
    time_limit: float | None = None
    #: RNG seed for reproducible runs.
    seed: int | None = None
    #: ``findSolution`` implementation: "greedy" (vectorised, fast) or
    #: "exact" (a small MIP per iteration, like the paper's 30s-budget
    #: GLPK sub-solves).
    subsolver: str = "greedy"
    #: Time budget per exact sub-solve (paper: 30 seconds).
    exact_time_limit: float = 30.0
    #: Disallow attribute replication (disjoint partitioning).
    disjoint: bool = False
    #: Probability that an x-move merges a whole site into another
    #: instead of relocating a random 10% (escapes plateaus on
    #: instances where every query touches most attributes).
    merge_probability: float = 0.15
    #: Number of independently seeded annealing restarts; the portfolio
    #: returns the best-of-N incumbent (restart 0 reuses ``seed``, so
    #: ``restarts=1`` is exactly the single-run behaviour).
    restarts: int = 1
    #: Worker slots for running restarts concurrently (1 = in-process
    #: serial).  The result is deterministic for a fixed seed regardless
    #: of ``jobs`` — only wall-clock changes.
    jobs: int = 1
    #: Wall-clock budget in seconds for the whole restart portfolio
    #: (None = unlimited).  Restarts still pending when it expires are
    #: cancelled; running stragglers are cut short via their own
    #: ``time_limit``.
    portfolio_time_limit: float | None = None
    #: Execution backend for the restart portfolio: a name registered in
    #: :mod:`repro.sa.backends` ("serial", "process", "thread",
    #: "socket"), or ``None`` for the historical default (serial for one
    #: worker slot, the process pool otherwise).  The returned best is
    #: bitwise identical per master seed whatever the backend.
    backend: str | None = None
    #: Worker processes the ``"socket"`` transport backend spawns
    #: (``None`` = one per usable job slot).  ``0`` is legal and runs
    #: the whole portfolio through the transport's in-driver degraded
    #: mode — the same code path a drained worker pool falls back to.
    workers: int | None = None
    #: Failed attempts allowed *per restart* on the fault-tolerant
    #: "socket" backend (remote workers and its in-driver loop alike)
    #: before the portfolio fails with
    #: :class:`~repro.exceptions.SolverError`; a lost restart would
    #: silently change the best-of-N result, which the determinism
    #: contract forbids.
    max_retries: int = 2
    #: Seconds between worker heartbeats on the socket transport.
    heartbeat_interval: float = 0.5
    #: Seconds of worker silence after which the transport's liveness
    #: monitor declares the worker dead and requeues its in-flight
    #: restart.  Must exceed ``heartbeat_interval``.
    heartbeat_timeout: float = 5.0
    #: Base of the exponential retry backoff in seconds: attempt ``k``
    #: of a restart waits ``~ backoff_base * 2**(k-1)`` scaled by a
    #: deterministic jitter derived from the restart seed.  ``0``
    #: disables backoff (the socket backend's in-driver loop never
    #: waits).
    backoff_base: float = 0.05
    #: Incumbent layout to warm-start from, as the JSON dictionary form
    #: of :class:`~repro.partition.current_layout.CurrentLayout`
    #: (``layout.to_dict()``) so it rides the socket task envelopes
    #: unchanged.  ``None`` (the default) keeps the historical random
    #: initial solution.  The warm start replaces the *initial*
    #: solution of every restart with the repaired incumbent, so the
    #: portfolio's best is <= the stay-put cost by construction.
    warm_start: Mapping[str, Any] | None = field(default=None)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.OptionsError` on bad options.

        Runs eagerly from ``__post_init__`` (and again from
        :class:`~repro.sa.solver.SaPartitioner`) so misconfigured runs
        fail before any annealing starts, not minutes into it.
        """
        if self.inner_loops < 1:
            raise OptionsError("inner_loops must be >= 1")
        if not 0.0 < self.cooling_rate < 1.0:
            raise OptionsError("cooling_rate must be in (0, 1)")
        if not 0.0 < self.move_fraction <= 1.0:
            raise OptionsError("move_fraction must be in (0, 1]")
        if self.subsolver not in ("greedy", "exact"):
            raise OptionsError(f"unknown subsolver {self.subsolver!r}")
        if self.max_outer_loops < 1:
            raise OptionsError("max_outer_loops must be >= 1")
        if self.patience < 1:
            raise OptionsError("patience must be >= 1")
        if self.time_limit is not None and self.time_limit < 0:
            raise OptionsError(
                f"time_limit must be >= 0 seconds, got {self.time_limit}"
            )
        if self.exact_time_limit <= 0:
            raise OptionsError(
                f"exact_time_limit must be positive, got {self.exact_time_limit}"
            )
        if self.restarts < 1:
            raise OptionsError(f"restarts must be >= 1, got {self.restarts}")
        if self.jobs < 1:
            raise OptionsError(f"jobs must be >= 1, got {self.jobs}")
        if self.portfolio_time_limit is not None and self.portfolio_time_limit <= 0:
            raise OptionsError(
                f"portfolio_time_limit must be positive seconds, got "
                f"{self.portfolio_time_limit}"
            )
        if self.workers is not None and self.workers < 0:
            raise OptionsError(f"workers must be >= 0, got {self.workers}")
        # Imported lazily: the backends package imports this module.
        from repro.sa.backends.retry import validate_max_retries

        validate_max_retries(self.max_retries)
        if self.heartbeat_interval <= 0:
            raise OptionsError(
                f"heartbeat_interval must be positive seconds, got "
                f"{self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise OptionsError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}) or every "
                f"worker looks stalled"
            )
        if self.backoff_base < 0:
            raise OptionsError(
                f"backoff_base must be >= 0 seconds, got {self.backoff_base}"
            )
        if self.warm_start is not None:
            if not isinstance(self.warm_start, Mapping):
                raise OptionsError(
                    f"warm_start must be a layout dictionary "
                    f"(CurrentLayout.to_dict()) or None, got "
                    f"{type(self.warm_start).__name__}"
                )
            if "placements" not in self.warm_start:
                raise OptionsError(
                    "warm_start layout dictionary misses 'placements'"
                )
        if self.backend is not None:
            from repro.sa.backends import backend_names

            if self.backend not in backend_names():
                raise OptionsError(
                    f"unknown execution backend {self.backend!r}; "
                    f"registered: {', '.join(backend_names())}"
                )


#: A configuration tuned for speed, used by the large Table-1 sweeps.
FAST_OPTIONS = SaOptions(inner_loops=10, max_outer_loops=25, patience=6)
