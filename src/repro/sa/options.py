"""Tuning knobs of the SA solver."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import OptionsError

#: Section 5.1: accept a solution that is WORSE_FRACTION worse with
#: ACCEPT_PROBABILITY in the first iterations; fixes the initial
#: temperature tau = -WORSE_FRACTION * C* / ln(ACCEPT_PROBABILITY).
INITIAL_WORSE_FRACTION = 0.05
INITIAL_ACCEPT_PROBABILITY = 0.5


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


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
    #: Worker processes for running restarts concurrently (1 =
    #: in-process serial).  ``None`` (the default) means the cores this
    #: process may use, capped by ``restarts`` (see
    #: :attr:`effective_jobs`).  The result is deterministic for a fixed
    #: seed regardless of ``jobs`` — only wall-clock changes.
    jobs: int | None = None
    #: Wall-clock budget in seconds for the whole restart portfolio
    #: (None = unlimited).  Restarts still pending when it expires are
    #: cancelled; running stragglers are cut short via their own
    #: ``time_limit``.
    portfolio_time_limit: float | None = None
    #: Execution backend for the restart portfolio: a name registered in
    #: :mod:`repro.sa.backends` ("serial", "process"), or ``None`` for
    #: the default: serial for one worker slot of
    #: :attr:`effective_jobs`, forked worker processes otherwise.  The
    #: returned best is bitwise identical per master seed whatever the
    #: backend.
    backend: str | None = None
    #: Failed attempts allowed *per restart* on the fault-tolerant
    #: "process" backend's workers before the portfolio fails with
    #: :class:`~repro.exceptions.SolverError`; a lost restart would
    #: silently change the best-of-N result, which the determinism
    #: contract forbids.
    max_retries: int = 2
    #: Seconds of silence after which the process backend writes off a
    #: worker with a restart in flight (it blocked), kills it and
    #: requeues the restart.  Workers heartbeat from the anneal loop,
    #: at most once per ``heartbeat_timeout / 10`` seconds; under
    #: ``subsolver="exact"`` the driver tolerates ``exact_time_limit``
    #: more, the length of one sub-solve.  An idle worker is never
    #: written off.
    heartbeat_timeout: float = 5.0
    #: Base of the exponential retry backoff in seconds: attempt ``k``
    #: of a restart waits ``~ backoff_base * 2**(k-1)`` scaled by a
    #: deterministic jitter derived from the restart seed.  ``0``
    #: disables backoff.
    backoff_base: float = 0.05
    #: Incumbent layout to warm-start from, as the JSON dictionary form
    #: of :class:`~repro.partition.current_layout.CurrentLayout`
    #: (``layout.to_dict()``) so it rides a request's JSON
    #: unchanged.  ``None`` (the default) keeps the historical random
    #: initial solution.  The warm start replaces the *initial*
    #: solution of every restart with the repaired incumbent, so the
    #: portfolio's best is <= the stay-put cost by construction.
    warm_start: Mapping[str, Any] | None = field(default=None)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def effective_jobs(self) -> int:
        """``jobs`` when set; otherwise :func:`usable_cores` capped by
        ``restarts``, or 1 where the platform cannot fork workers."""
        if self.jobs is not None:
            return self.jobs
        if not hasattr(os, "fork"):
            return 1
        return min(usable_cores(), self.restarts)

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
        if self.jobs is not None and self.jobs < 1:
            raise OptionsError(f"jobs must be >= 1, got {self.jobs}")
        if self.portfolio_time_limit is not None and self.portfolio_time_limit <= 0:
            raise OptionsError(
                f"portfolio_time_limit must be positive seconds, got "
                f"{self.portfolio_time_limit}"
            )
        # Imported lazily: the backends package imports this module.
        from repro.sa.backends.retry import validate_max_retries

        validate_max_retries(self.max_retries)
        if self.heartbeat_timeout <= 0:
            raise OptionsError(
                f"heartbeat_timeout must be positive seconds, got "
                f"{self.heartbeat_timeout}"
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
