"""Parameter sweeps over the cost model.

Every sweep serves its points through one sweep-level
:class:`~repro.api.Advisor` (wrapped in :class:`SweepCaches`): the
instance's indicators/weights feed a
:class:`~repro.costmodel.coefficients.CoefficientCache` (coefficients
are assembled with exactly the uncached arithmetic, so results are
bitwise identical).  Each QP point assembles its own model (7) from
those coefficients with array arithmetic.  The ``solver`` argument of
each sweep is a registry strategy name, so user-registered strategies
sweep exactly like the built-ins.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.api.advisor import Advisor
from repro.api.request import SolveRequest
from repro.costmodel.config import CostParameters
from repro.exceptions import SolverLimitError
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult, single_site_partitioning
from repro.sa.options import SaOptions


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep series."""

    parameter: float
    objective: float
    local_access: float
    transfer: float
    max_load: float
    replication_factor: float
    wall_time: float


@dataclass
class SweepSeries:
    """A labelled series of sweep points (plot-ready)."""

    instance: str
    parameter_name: str
    solver: str
    points: list[SweepPoint] = field(default_factory=list)

    def values(self) -> list[float]:
        return [point.parameter for point in self.points]

    def objectives(self) -> list[float]:
        return [point.objective for point in self.points]

    def as_rows(self) -> list[dict[str, float]]:
        return [
            {
                self.parameter_name: point.parameter,
                "objective": point.objective,
                "local A": point.local_access,
                "transfer B": point.transfer,
                "max load": point.max_load,
                "replicas/attr": round(point.replication_factor, 3),
                "time s": round(point.wall_time, 2),
            }
            for point in self.points
        ]


class SweepCaches:
    """Per-sweep serving bundle: one advisor shared by every point."""

    def __init__(self, instance: ProblemInstance):
        self.advisor = Advisor()
        self.instance = instance
        self.coefficients = self.advisor.coefficient_cache(instance)


def _solve(
    caches: SweepCaches,
    num_sites: int,
    parameters: CostParameters,
    solver: str,
    time_limit: float,
    seed: int,
    sa_options: SaOptions | None = None,
) -> PartitioningResult:
    if num_sites == 1:
        return single_site_partitioning(
            caches.coefficients.coefficients(parameters)
        )
    if solver == "qp":
        request = SolveRequest(
            instance=caches.instance,
            num_sites=num_sites,
            parameters=parameters,
            strategy="qp",
            time_limit=time_limit,
        )
    elif solver in ("sa", "sa-portfolio"):
        option_fields = asdict(
            sa_options or SaOptions(inner_loops=10, max_outer_loops=20)
        )
        disjoint = option_fields.pop("disjoint")
        if solver == "sa-portfolio" and option_fields["restarts"] == 1:
            # Let the strategy apply its portfolio default instead of
            # pinning SaOptions' single-run default.
            del option_fields["restarts"]
        request = SolveRequest(
            instance=caches.instance,
            num_sites=num_sites,
            parameters=parameters,
            allow_replication=not disjoint,
            strategy=solver,
            options=option_fields,
            # The sweep-level seed fills in only when the caller's
            # options don't pin one already.
            seed=seed,
        )
    else:
        request = SolveRequest(
            instance=caches.instance,
            num_sites=num_sites,
            parameters=parameters,
            strategy=solver,
            seed=seed,
            time_limit=time_limit,
        )
    return caches.advisor.advise(request).result


def _point(parameter: float, result: PartitioningResult) -> SweepPoint:
    breakdown = result.breakdown()
    return SweepPoint(
        parameter=parameter,
        objective=result.objective,
        local_access=breakdown.local_access,
        transfer=breakdown.transfer,
        max_load=breakdown.max_load,
        replication_factor=result.replication_factor,
        wall_time=result.wall_time,
    )


def penalty_sweep(
    instance: ProblemInstance,
    num_sites: int = 2,
    penalties: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 128.0),
    solver: str = "qp",
    time_limit: float = 30.0,
    seed: int = 0,
    sa_options: SaOptions | None = None,
) -> SweepSeries:
    """Optimal cost as the network penalty ``p`` grows.

    ``p = 0`` is Table 6's local placement; ``p in [3, 128]`` spans the
    paper's gigabit-to-PCIe range. Expected shape: the objective is
    non-decreasing in ``p`` and the optimiser replicates written
    attributes less as transfer gets pricier.
    """
    series = SweepSeries(instance.name, "p", solver)
    caches = SweepCaches(instance)
    for penalty in penalties:
        parameters = CostParameters(network_penalty=penalty)
        result = _solve(
            caches, num_sites, parameters, solver, time_limit, seed, sa_options
        )
        series.points.append(_point(penalty, result))
    return series


def sites_sweep(
    instance: ProblemInstance,
    max_sites: int = 5,
    parameters: CostParameters | None = None,
    solver: str = "qp",
    time_limit: float = 30.0,
    seed: int = 0,
    sa_options: SaOptions | None = None,
) -> SweepSeries:
    """Optimal cost as the number of sites grows (the Table 5 plateau)."""
    parameters = parameters or CostParameters()
    series = SweepSeries(instance.name, "|S|", solver)
    caches = SweepCaches(instance)
    for num_sites in range(1, max_sites + 1):
        result = _solve(
            caches, num_sites, parameters, solver, time_limit, seed, sa_options
        )
        series.points.append(_point(float(num_sites), result))
    return series


def lambda_sweep(
    instance: ProblemInstance,
    num_sites: int = 2,
    lambdas: Sequence[float] = (1.0, 0.9, 0.7, 0.5, 0.3, 0.1),
    solver: str = "qp",
    time_limit: float = 30.0,
    seed: int = 0,
    sa_options: SaOptions | None = None,
) -> SweepSeries:
    """The cost/balance trade-off: objective (4) and max load vs lambda.

    As the cost weight drops, the max site load shrinks and the actual
    cost rises — quantifying exactly the ambiguity discussed in
    DESIGN.md around the paper's lambda = 0.1.
    """
    series = SweepSeries(instance.name, "lambda", solver)
    caches = SweepCaches(instance)
    for lam in lambdas:
        parameters = CostParameters(load_balance_lambda=lam)
        result = _solve(
            caches, num_sites, parameters, solver, time_limit, seed, sa_options
        )
        series.points.append(_point(lam, result))
    return series


def replication_price_sweep(
    instance: ProblemInstance,
    num_sites: int = 2,
    penalties: Sequence[float] = (0.0, 2.0, 8.0, 32.0),
    time_limit: float = 30.0,
) -> list[dict[str, float]]:
    """Replicated-vs-disjoint cost ratio as transfer gets pricier.

    Replication ships every update to every replica, so its advantage
    (Table 5) should erode as ``p`` grows on write-heavy workloads.
    """
    rows: list[dict[str, float]] = []
    caches = SweepCaches(instance)
    for penalty in penalties:
        parameters = CostParameters(network_penalty=penalty)

        def qp_request(allow_replication: bool) -> SolveRequest:
            return SolveRequest(
                instance=caches.instance,
                num_sites=num_sites,
                parameters=parameters,
                allow_replication=allow_replication,
                strategy="qp",
                time_limit=time_limit,
            )

        try:
            replicated = caches.advisor.advise(qp_request(True)).result
            disjoint = caches.advisor.advise(qp_request(False)).result
        except SolverLimitError:
            continue
        rows.append(
            {
                "p": penalty,
                "replicated": replicated.objective,
                "disjoint": disjoint.objective,
                "ratio %": round(
                    100.0 * replicated.objective / disjoint.objective, 1
                ),
            }
        )
    return rows
