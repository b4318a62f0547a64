"""Facade turning the annealer into a :class:`PartitioningResult`."""

from __future__ import annotations

import time

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.options import SaOptions
from repro.sa.portfolio import run_portfolio


class SaPartitioner:
    """Simulated-annealing vertical partitioning (the paper's SA solver).

    With ``options.restarts > 1`` the solve runs a multi-start portfolio
    (:mod:`repro.sa.portfolio`): best-of-N independently seeded
    annealing runs, optionally across ``options.jobs`` workers.
    """

    def __init__(
        self,
        instance: ProblemInstance | CostCoefficients,
        num_sites: int,
        parameters: CostParameters | None = None,
        options: SaOptions | None = None,
    ):
        if isinstance(instance, CostCoefficients):
            self.coefficients = instance
            if parameters is not None and parameters != instance.parameters:
                raise SolverError(
                    "pass either prebuilt coefficients or parameters, not "
                    "conflicting versions of both"
                )
        else:
            self.coefficients = build_coefficients(instance, parameters)
        if num_sites < 1:
            raise SolverError(f"need at least one site, got {num_sites}")
        self.num_sites = num_sites
        self.options = options or SaOptions()
        # Fail on bad options here, before any annealing starts (raises
        # OptionsError; dataclasses.replace-built options re-validate in
        # __post_init__, but options coming from deserialisation paths
        # may not have).
        self.options.validate()

    def solve(self) -> PartitioningResult:
        if (
            self.options.restarts > 1
            or self.options.portfolio_time_limit is not None
            or self.options.backend is not None
        ):
            # A portfolio budget on a single restart still routes through
            # the portfolio so the deadline is honoured; an explicit
            # execution backend routes through the portfolio so the
            # backend is exercised even for restarts=1.
            return self._solve_portfolio()
        started = time.perf_counter()
        annealer = SimulatedAnnealer(self.coefficients, self.num_sites, self.options)
        x, y, objective6 = annealer.run()
        wall_time = time.perf_counter() - started
        evaluator = SolutionEvaluator(self.coefficients)
        return PartitioningResult(
            coefficients=self.coefficients,
            x=x,
            y=y,
            objective=evaluator.objective4(x, y),
            solver="sa",
            wall_time=wall_time,
            proven_optimal=False,
            metadata={
                "objective6": objective6,
                "iterations": annealer.trace.iterations,
                "accepted": annealer.trace.accepted,
                "accepted_worse": annealer.trace.accepted_worse,
                "outer_loops": annealer.trace.outer_loops,
                "disjoint": self.options.disjoint,
                "subsolver": self.options.subsolver,
            },
        )

    def _solve_portfolio(self) -> PartitioningResult:
        portfolio = run_portfolio(self.coefficients, self.num_sites, self.options)
        best = next(
            outcome
            for outcome in portfolio.outcomes
            if outcome.restart == portfolio.best_restart
        )
        evaluator = SolutionEvaluator(self.coefficients)
        return PartitioningResult(
            coefficients=self.coefficients,
            x=portfolio.x,
            y=portfolio.y,
            objective=evaluator.objective4(portfolio.x, portfolio.y),
            solver="sa",
            wall_time=portfolio.wall_time,
            proven_optimal=False,
            metadata={
                "objective6": portfolio.objective6,
                "iterations": sum(o.iterations for o in portfolio.outcomes),
                "accepted": sum(o.accepted for o in portfolio.outcomes),
                "accepted_worse": sum(o.accepted_worse for o in portfolio.outcomes),
                "outer_loops": best.outer_loops,
                "disjoint": self.options.disjoint,
                "subsolver": self.options.subsolver,
                "restarts": self.options.restarts,
                "jobs": self.options.effective_jobs,
                "executor": portfolio.executor,
                "best_restart": portfolio.best_restart,
                "restart_seeds": portfolio.restart_seeds,
                "restart_objectives": portfolio.restart_objectives,
                "cancelled_restarts": portfolio.cancelled,
                "retried_restarts": portfolio.retried_restarts,
                "requeue_count": portfolio.requeue_count,
                "worker_failures": portfolio.worker_failures,
            },
        )


def solve_sa(
    instance: ProblemInstance | CostCoefficients,
    num_sites: int,
    parameters: CostParameters | None = None,
    options: SaOptions | None = None,
    seed: int | None = None,
    restarts: int | None = None,
    jobs: int | None = None,
) -> PartitioningResult:
    """One-call convenience wrapper: a thin shim over the unified
    advisor API (``advise`` with strategy ``"sa"``), kept for
    compatibility and pinned by test to return the same result as the
    direct :class:`SaPartitioner` call.

    ``seed``, ``restarts`` and ``jobs`` override the corresponding
    :class:`SaOptions` fields when given.
    """
    from dataclasses import asdict, replace

    from repro.api.advisor import advise
    from repro.api.request import SolveRequest

    overrides: dict[str, int] = {}
    if seed is not None:
        overrides["seed"] = seed
    if restarts is not None:
        overrides["restarts"] = restarts
    if jobs is not None:
        overrides["jobs"] = jobs
    if overrides:
        options = replace(options or SaOptions(), **overrides)
    if isinstance(instance, CostCoefficients):
        # Prebuilt coefficients skip the advisor (which would rebuild
        # them from the instance) and go to the partitioner directly.
        return SaPartitioner(
            instance, num_sites, parameters=parameters, options=options
        ).solve()
    option_fields = asdict(options or SaOptions())
    disjoint = option_fields.pop("disjoint")
    request = SolveRequest(
        instance=instance,
        num_sites=num_sites,
        parameters=parameters or CostParameters(),
        allow_replication=not disjoint,
        strategy="sa",
        options=option_fields,
    )
    return advise(request).result
