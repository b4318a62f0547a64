"""The uniform report returned for every :class:`~repro.api.SolveRequest`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.request import SolveRequest
from repro.partition.assignment import PartitioningResult


@dataclass(frozen=True)
class MigrationReport:
    """Stay-vs-move verdict of a :meth:`~repro.api.advisor.Advisor.readvise`.

    All costs are blended objective (6) values on the (possibly
    re-estimated) instance.  ``stay_cost`` prices the deterministic
    stay-put solution (the incumbent repaired to feasibility, its
    transactions placed greedily); ``solve_cost`` is the re-solve's
    objective *without* the move term, ``move_cost`` the one-time move
    bytes its layout incurs, and ``total_cost`` the migration-augmented
    objective the solver actually minimised
    (``solve_cost + lambda * move_cost``).  ``recommendation`` is
    ``"migrate"`` iff the re-solve's total undercuts staying put
    strictly and the layouts actually differ, else ``"stay"``.
    """

    stay_cost: float
    solve_cost: float
    move_cost: float
    total_cost: float
    recommendation: str
    migration_cost: float  # the request's per-byte knob, echoed back

    @property
    def net_benefit(self) -> float:
        """``stay_cost - total_cost``: what migrating saves (can be < 0)."""
        return self.stay_cost - self.total_cost


@dataclass
class SolveReport:
    """A solved request: the partitioning plus serving metadata.

    Attributes
    ----------
    request:
        The request that produced this report.
    result:
        The underlying :class:`~repro.partition.PartitioningResult`
        (bitwise identical to what the strategy's direct entry point
        would have returned for the same inputs and seeds).
    strategy:
        The resolved strategy chain actually executed — e.g. ``"qp"``
        when the request asked for ``"auto"`` and the model-size cutoff
        picked the exact solver.
    wall_time:
        Seconds the advisor spent serving the request end to end
        (all chained stages included).
    cache_stats:
        Advisor cache activity attributable to this request:
        ``coefficient_hits`` / ``coefficient_misses`` /
        ``coefficient_evictions`` (shared indicator/weight products).
    stage_results:
        Results of earlier stages of a chained strategy (empty when the
        chain has one stage); ``result`` is always the final stage's.
    migration:
        The stay-vs-move :class:`MigrationReport` when the report came
        from :meth:`~repro.api.advisor.Advisor.readvise`; ``None`` for
        plain advises.
    """

    request: SolveRequest
    result: PartitioningResult
    strategy: str
    wall_time: float
    cache_stats: dict[str, int] = field(default_factory=dict)
    stage_results: list[PartitioningResult] = field(default_factory=list)
    migration: "MigrationReport | None" = None

    @property
    def requested_strategy(self) -> str:
        return self.request.strategy

    @property
    def objective(self) -> float:
        return self.result.objective

    @property
    def x(self) -> np.ndarray:
        return self.result.x

    @property
    def y(self) -> np.ndarray:
        return self.result.y

    @property
    def proven_optimal(self) -> bool:
        return self.result.proven_optimal

    @property
    def metadata(self) -> dict[str, Any]:
        return self.result.metadata

    @property
    def degraded_from(self) -> str | None:
        """The strategy the request *asked* for, when the advisor
        service's load-shedding policy served a cheaper one instead
        (``None`` for an undegraded solve).  A degraded report is still
        a fully valid answer — ``strategy`` names what actually ran and
        ``result`` is that strategy's exact output — the shed only
        shows up as this provenance marker.
        """
        value = self.result.metadata.get("degraded_from")
        return None if value is None else str(value)

    @property
    def resilience(self) -> dict[str, int]:
        """Fault/skip telemetry of the solve's restart portfolio.

        ``retried_restarts`` (distinct restarts that needed a retry),
        ``requeue_count`` (total failed/lost attempts re-dispatched) and
        ``worker_failures`` (faulted runs, dead connections, stalled
        heartbeats).  All zero for single-run strategies and for
        backends without fault tolerance (serial/process).
        """
        metadata = self.result.metadata
        return {
            key: int(metadata.get(key, 0))
            for key in (
                "retried_restarts",
                "requeue_count",
                "worker_failures",
            )
        }

    def __repr__(self) -> str:
        return (
            f"SolveReport(strategy={self.strategy!r}, "
            f"objective={self.objective:.6g}, "
            f"sites={self.result.num_sites}, "
            f"wall_time={self.wall_time:.3f}s)"
        )
