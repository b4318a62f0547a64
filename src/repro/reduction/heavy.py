"""The 20/80 rule (Section 4): solve heavy transactions first.

Assuming 20% of the transactions generate 80% of the load, the problem
can be solved iteratively over ``T``: partition for the heaviest subset
with the (expensive) exact solver, then extend to the full workload —
either by warm-starting a full QP or, cheaply, by alternating greedy
sub-solves for the remaining transactions around the fixed heavy core.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.advisor import Advisor
from repro.api.request import SolveRequest
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.model.instance import ProblemInstance
from repro.model.workload import Workload
from repro.partition.assignment import PartitioningResult
from repro.sa.subsolve import SubproblemSolver


class IterativeRefinement:
    """Two-stage heavy-first solve.

    Stage 1 solves the QP restricted to the heaviest
    ``heavy_fraction`` of transactions. Stage 2 fixes those placements,
    greedily inserts the light transactions one by one (cheapest
    feasible site under the blended objective) and re-optimises ``y``;
    optionally a full QP is warm-started from this solution.

    Both QP stages are served through the registry's ``"qp"`` strategy;
    pass a long-lived :class:`~repro.api.Advisor` to share its caches
    with other requests (a fresh one is created otherwise).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        num_sites: int,
        parameters: CostParameters | None = None,
        heavy_fraction: float = 0.2,
        advisor: Advisor | None = None,
    ):
        self.instance = instance
        self.num_sites = num_sites
        self.parameters = parameters or CostParameters()
        self.heavy_fraction = heavy_fraction
        self.advisor = advisor or Advisor()
        self.coefficients = self.advisor.coefficient_cache(instance).coefficients(
            self.parameters
        )

    def transaction_loads(self) -> np.ndarray:
        """Total access weight of each transaction (read + its writes)."""
        coefficients = self.coefficients
        indicators = coefficients.indicators
        per_query = (coefficients.weights * indicators.beta).sum(axis=0)  # (|Q|,)
        return per_query @ indicators.gamma  # (|T|,)

    def heavy_transactions(self) -> list[int]:
        loads = self.transaction_loads()
        count = max(1, int(round(self.heavy_fraction * loads.shape[0])))
        return sorted(np.argsort(-loads)[:count].tolist())

    def _sub_instance(self, transaction_indices: list[int]) -> ProblemInstance:
        transactions = tuple(
            self.instance.transactions[t] for t in transaction_indices
        )
        workload = Workload(transactions, name=f"{self.instance.workload.name}/heavy")
        return ProblemInstance(
            self.instance.schema, workload, name=f"{self.instance.name} (heavy)"
        )

    def solve(
        self,
        time_limit: float | None = None,
        gap: float = 1e-3,
        final_qp: bool = False,
    ) -> PartitioningResult:
        started = time.perf_counter()
        heavy = self.heavy_transactions()
        sub_instance = self._sub_instance(heavy)

        def qp_request(instance: ProblemInstance) -> SolveRequest:
            return SolveRequest(
                instance=instance,
                num_sites=self.num_sites,
                parameters=self.parameters,
                strategy="qp",
                options={"gap": gap},
                time_limit=time_limit,
            )

        sub_result = self.advisor.advise(qp_request(sub_instance)).result

        # Lift: heavy transactions keep their sites; light ones greedy.
        num_transactions = self.coefficients.num_transactions
        x = np.zeros((num_transactions, self.num_sites), dtype=bool)
        for position, t_index in enumerate(heavy):
            x[t_index] = sub_result.x[position]
        subsolver = SubproblemSolver(self.coefficients, self.num_sites)
        y = sub_result.y.copy()
        light = [t for t in range(num_transactions) if t not in set(heavy)]
        # Insert light transactions at their cheapest site given y, then
        # alternate a few greedy improvement rounds.
        for t_index in light:
            x[t_index] = _cheapest_site(subsolver, y, t_index)
        y = subsolver.optimize_y_greedy(x)
        for _ in range(3):
            x = subsolver.optimize_x_greedy(y)
            y = subsolver.optimize_y_greedy(x)

        evaluator = SolutionEvaluator(self.coefficients)
        result = PartitioningResult(
            coefficients=self.coefficients,
            x=x,
            y=y,
            objective=evaluator.objective4(x, y),
            solver="qp-heavy",
            wall_time=time.perf_counter() - started,
            proven_optimal=False,
            metadata={
                "heavy_transactions": [
                    self.instance.transactions[t].name for t in heavy
                ],
                "stage1_objective": sub_result.objective,
            },
        )
        if final_qp:
            refined = self.advisor.advise(
                qp_request(self.instance), warm_start=result
            ).result
            refined.wall_time += result.wall_time
            return refined
        return result


def _cheapest_site(
    subsolver: SubproblemSolver, y: np.ndarray, t_index: int
) -> np.ndarray:
    """One-hot site row minimising the transaction's placement cost."""
    ys = y.astype(float)
    cost = subsolver.lam * (subsolver.c1[:, t_index] @ ys)  # (|S|,)
    missing = subsolver.phi[:, t_index] @ (1.0 - ys)  # (|S|,)
    allowed = np.flatnonzero(missing < 0.5)
    candidates = allowed if allowed.size else np.arange(y.shape[1])
    best = candidates[np.argmin(cost[candidates])]
    row = np.zeros(y.shape[1], dtype=bool)
    row[best] = True
    return row


def solve_iterative(
    instance: ProblemInstance,
    num_sites: int,
    parameters: CostParameters | None = None,
    heavy_fraction: float = 0.2,
    time_limit: float | None = None,
    final_qp: bool = False,
) -> PartitioningResult:
    """One-call wrapper around :class:`IterativeRefinement`."""
    refinement = IterativeRefinement(
        instance, num_sites, parameters=parameters, heavy_fraction=heavy_fraction
    )
    return refinement.solve(time_limit=time_limit, final_qp=final_qp)
