"""Multi-start annealing portfolio: best-of-N independently seeded runs.

The paper's SA heuristic is restart-friendly by construction and PR 1
made per-solution state cheap (one independent
:class:`~repro.costmodel.incremental.IncrementalEvaluator` per run), so
a portfolio of ``restarts`` annealing runs is the cheapest way to buy
solution quality on the Table 1/3 experiment sweeps.  This module plans
the restarts and picks the winner; *executing* them is delegated to a
pluggable :mod:`repro.sa.backends` backend (in-process serial, or
forked worker processes driven over socket pairs), selected via
``SaOptions(backend=...)``:

* restart 0 reuses the master seed itself, so ``restarts=1`` reproduces
  the single-run trajectory exactly and best-of-N can never be worse
  than the single run a caller would have done before;
* restarts 1..N-1 draw pairwise-distinct seeds from a
  ``numpy.random.SeedSequence`` spawned off the master seed, so the
  portfolio is reproducible end to end;
* the incumbent is chosen by ``(objective6, restart_index)``, which does
  not depend on completion order — for a fixed master seed the result is
  identical for any backend and any ``jobs`` value (absent time limits,
  which truncate runs nondeterministically by their nature);
* ``portfolio_time_limit`` bounds the whole portfolio: restarts not yet
  started when the budget runs out are cancelled, and running stragglers
  are cut short through the annealer's own wall-clock guard (every such
  exit still routes through the collapsed one-site guard, so truncated
  restarts return valid solutions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import SolverError
from repro.sa import backends as execution_backends
from repro.sa.backends import (
    ExecutionBackend,
    PortfolioPlan,
    RestartOutcome,
    run_restart as _run_restart,
)
from repro.sa.options import SaOptions


@dataclass
class PortfolioResult:
    """Best-of-N incumbent plus the per-restart record."""

    x: np.ndarray
    y: np.ndarray
    objective6: float
    best_restart: int
    executor: str
    wall_time: float
    outcomes: list[RestartOutcome] = field(default_factory=list)
    #: Restarts cancelled by ``portfolio_time_limit`` before starting.
    cancelled: int = 0
    #: Distinct restarts that needed at least one retry (always 0 for
    #: serial).
    retried_restarts: int = 0
    #: Total restart requeues: failed or lost attempts re-dispatched,
    #: bounded per restart by ``max_retries``.
    requeue_count: int = 0
    #: Worker failures observed: restarts that raised, dead workers,
    #: workers gone silent.
    worker_failures: int = 0

    @property
    def pruned(self) -> int:
        """Always 0: restarts are never skipped except by the deadline.

        Kept read-only because the benchmark's tracer reads it; remove it
        with that tracer's ``portfolio.pruned`` counter.
        """
        return 0

    @property
    def restart_seeds(self) -> list[int | None]:
        return [outcome.seed for outcome in self.outcomes]

    @property
    def restart_objectives(self) -> list[float]:
        return [outcome.objective6 for outcome in self.outcomes]


def derive_restart_seeds(master_seed: int | None, restarts: int) -> list[int | None]:
    """Seeds for ``restarts`` independent runs under one master seed.

    Restart 0 keeps the master seed itself (so ``restarts=1`` equals the
    plain single run); the rest are drawn from ``SeedSequence`` children
    of the master seed and are guaranteed pairwise distinct (and
    distinct from the master).  With ``master_seed=None`` every restart
    gets fresh OS entropy and the portfolio is intentionally
    irreproducible, matching the single-run convention.
    """
    if restarts < 1:
        raise SolverError(f"restarts must be >= 1, got {restarts}")
    if master_seed is None:
        entropy = np.random.SeedSequence()
        seeds: list[int | None] = [None]
        seen: set[int] = set()
    else:
        entropy = np.random.SeedSequence(master_seed)
        seeds = [int(master_seed)]
        seen = {int(master_seed)}
    spawn_key = 0
    while len(seeds) < restarts:
        child = np.random.SeedSequence(
            entropy.entropy, spawn_key=(spawn_key,)
        )
        spawn_key += 1
        value = int(child.generate_state(1, np.uint64)[0])
        if value in seen:
            continue
        seen.add(value)
        seeds.append(value)
    return seeds


def resolve_backend(
    options: SaOptions, backend: str | ExecutionBackend | None = None
) -> ExecutionBackend:
    """The execution backend for one portfolio run.

    Precedence: an explicit ``backend`` argument (a registered name or a
    ready-made instance), then ``options.backend``, then the default —
    serial in-process for one worker slot, forked workers otherwise
    (an unset ``jobs`` means the usable cores, see
    :attr:`~repro.sa.options.SaOptions.effective_jobs`).
    """
    if backend is None:
        backend = options.backend
    if backend is None:
        jobs = min(options.effective_jobs, options.restarts)
        backend = "serial" if jobs <= 1 else "process"
    if isinstance(backend, str):
        return execution_backends.get_backend(backend)
    return backend


def run_portfolio(
    coefficients: CostCoefficients,
    num_sites: int,
    options: SaOptions | None = None,
    backend: str | ExecutionBackend | None = None,
) -> PortfolioResult:
    """Run the multi-start portfolio and return the best-of-N result.

    ``backend`` overrides ``options.backend`` (mainly for tests that
    inject preconfigured backends, e.g. a
    :class:`~repro.sa.transport.socket_backend.SocketTransportBackend`
    with a fault plan).
    """
    options = options or SaOptions()
    options.validate()
    started = time.perf_counter()
    seeds = derive_restart_seeds(options.seed, options.restarts)
    deadline = None
    if options.portfolio_time_limit is not None:
        deadline = time.monotonic() + options.portfolio_time_limit

    plan = PortfolioPlan(
        coefficients=coefficients,
        num_sites=num_sites,
        options=options,
        seeds=seeds,
        deadline=deadline,
    )
    executor = resolve_backend(options, backend)
    run = executor.run(plan)
    outcomes = sorted(run.outcomes, key=lambda outcome: outcome.restart)
    cancelled = run.cancelled

    if not outcomes:
        # Degenerate budget (even restart 0 got cancelled): run restart
        # 0 inline with an already-expired deadline, so it exits
        # straight through the collapsed-layout guard — the caller
        # always gets a solution back without blowing the spent budget.
        outcomes.append(
            _run_restart(
                coefficients, num_sites, options, 0, seeds[0], time.monotonic()
            )
        )
        cancelled = max(0, cancelled - 1)

    best = min(outcomes, key=lambda outcome: (outcome.objective6, outcome.restart))
    return PortfolioResult(
        x=best.x,
        y=best.y,
        objective6=best.objective6,
        best_restart=best.restart,
        executor=run.kind,
        wall_time=time.perf_counter() - started,
        outcomes=outcomes,
        cancelled=cancelled,
        retried_restarts=run.retried_restarts,
        requeue_count=run.requeue_count,
        worker_failures=run.worker_failures,
    )
