"""The QP partitioner: solve the linearised model (7) with HiGHS."""

from __future__ import annotations

import time

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator, feasibility_violations
from repro.exceptions import SolverError, SolverLimitError
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult
from repro.qp.linearize import (
    build_linearized_model,
    linearization_pattern,
    sites_interchangeable,
)
from repro.qp.reduce import model_classes, reduce_coefficients
from repro.solver.solution import SolutionStatus

#: The paper's MIP tolerance gap (Section 5: 0.1%).
PAPER_GAP = 1e-3


class QpPartitioner:
    """Optimal (to within a MIP gap) vertical partitioning via model (7).

    The model is built over exact attribute classes, and a disjoint one
    over read-sharing components too (:mod:`repro.qp.reduce`); answers
    are expanded back to transactions and attributes and evaluated on
    the caller's coefficients.

    >>> from repro.instances import tpcc_instance
    >>> partitioner = QpPartitioner(tpcc_instance(), num_sites=2)
    >>> result = partitioner.solve(time_limit=60)   # doctest: +SKIP
    """

    def __init__(
        self,
        instance: ProblemInstance | CostCoefficients,
        num_sites: int,
        parameters: CostParameters | None = None,
        allow_replication: bool = True,
        latency: bool = False,
        symmetry_breaking: bool = True,
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
        self.num_sites = num_sites
        self.allow_replication = allow_replication
        self.latency = latency
        self.symmetry_breaking = symmetry_breaking
        #: Class per transaction and per attribute, each ``None`` when
        #: nothing merges on that side.
        self.transaction_classes, self.classes = model_classes(
            self.coefficients, allow_replication
        )
        reduced, first = self.coefficients, None
        if self.transaction_classes is not None:
            first = np.unique(self.transaction_classes, return_index=True)[1]
        if self.classes is not None or first is not None:
            reduced = reduce_coefficients(
                self.coefficients, self.classes, self.transaction_classes
            )
        self.linearized = build_linearized_model(
            reduced,
            num_sites,
            allow_replication=allow_replication,
            latency=latency,
            symmetry_breaking=symmetry_breaking,
            first_transactions=first,
        )

    @property
    def model_size(self) -> dict[str, int]:
        """Variable/constraint counts of the linearised model HiGHS
        solves (over classes)."""
        model = self.linearized.model
        return {
            "variables": model.num_variables,
            "integer_variables": model.num_integer_variables,
            "constraints": model.num_constraints,
            "u_variables": self.linearized.u_columns.size,
        }

    @staticmethod
    def estimate_model_size(
        coefficients: CostCoefficients,
        num_sites: int,
        allow_replication: bool = True,
        latency: bool = False,
        symmetry_breaking: bool = True,
    ) -> dict[str, int]:
        """:attr:`model_size` computed without building the model.

        Counts the variables and constraint rows
        :func:`~repro.qp.linearize.build_linearized_model` would create,
        from the coefficient sparsity alone — cheap enough to drive the
        ``"auto"`` strategy's QP-vs-SA cutoff (the paper's Section VI
        scalability limit) on every request.
        """
        num_transactions = coefficients.num_transactions
        num_attributes = coefficients.num_attributes
        need_pair, psi_queries = linearization_pattern(coefficients, latency)
        num_psi = psi_queries.size
        load_side = coefficients.parameters.load_balance_lambda < 1.0

        num_u = int(need_pair.sum()) * num_sites
        num_binary = (num_transactions + num_attributes) * num_sites + num_psi
        num_variables = num_u + num_binary + (1 if load_side else 0)
        num_symmetry = sum(
            num_sites - (t + 1)
            for t in range(min(num_transactions, num_sites - 1))
        )
        num_constraints = (
            num_transactions  # place_x
            + num_attributes  # place_y (>= or == depending on replication)
            + int(coefficients.phi_bool.sum()) * num_sites  # co-location
            + 3 * num_u  # linearisation triples
            + (num_sites if load_side else 0)  # load rows
            + 2 * num_psi  # psi bounds
            + (
                num_symmetry
                if symmetry_breaking and sites_interchangeable(coefficients)
                else 0
            )
        )
        return {
            "variables": num_variables,
            "integer_variables": num_binary,
            "constraints": num_constraints,
            "u_variables": num_u,
        }

    def solve(
        self,
        time_limit: float | None = None,
        gap: float = PAPER_GAP,
        warm_start: PartitioningResult | None = None,
    ) -> PartitioningResult:
        """Solve and return the best partitioning found.

        A ``warm_start`` (e.g. an earlier chain stage's answer) is never
        lost: its objective (4) is evaluated on this model's
        coefficients, and it is returned instead of the MIP answer when
        strictly lower, or when the time limit passes before HiGHS finds
        any integer solution (``metadata["warm_start_objective"]`` and
        ``["warm_start_kept"]``).

        Raises :class:`SolverLimitError` when the time limit passes with
        no feasible solution and no warm start (the paper's "t/o"
        cells).
        """
        started = time.perf_counter()
        evaluator = SolutionEvaluator(self.coefficients)
        warm_objective = (
            None if warm_start is None
            else self._warm_start_objective(warm_start, evaluator)
        )
        linearized = self.linearized
        solution = linearized.model.solve(time_limit=time_limit, gap=gap)
        wall_time = time.perf_counter() - started
        if solution.status.has_solution:
            x, y = linearized.extract(solution.values)
            if self.transaction_classes is not None:
                x = x[self.transaction_classes]
            if self.classes is not None:
                y = y[self.classes]
            objective = evaluator.objective4(x, y)
            keep_warm = warm_objective is not None and warm_objective < objective
        elif solution.status is not SolutionStatus.NO_SOLUTION:
            raise SolverError(
                f"QP solve failed with status {solution.status.value} "
                f"(model {linearized.model.name})"
            )
        elif warm_objective is None:
            raise SolverLimitError(
                f"QP solver found no integer solution within limits "
                f"(model {linearized.model.name})"
            )
        else:
            keep_warm = True
        mip_gap = solution.gap
        proven_optimal = solution.status is SolutionStatus.OPTIMAL
        if keep_warm:
            x, y, objective = warm_start.x.copy(), warm_start.y.copy(), warm_objective
            if solution.bound is not None:
                # The returned answer's gap: its objective (7) value
                # against the bound HiGHS proved.  Under lambda < 1 a
                # warm start can buy its lower cost (4) with worse
                # balance, so this gap can exceed the requested one.
                # It is priced on the attributes, because a warm start
                # may give the members of a class different sites.
                value = evaluator.objective6(x, y)
                if linearized.psi_queries.size:
                    value += (
                        self.coefficients.parameters.load_balance_lambda
                        * evaluator.latency(x, y)
                    )
                mip_gap = abs(value - solution.bound) / max(1.0, abs(value))
                proven_optimal = proven_optimal and mip_gap <= gap
        metadata = {
            "mip_objective6": solution.objective,
            "mip_bound": solution.bound,
            "mip_gap": mip_gap,
            "nodes": solution.nodes,
            **self.model_size,
            "attribute_classes": linearized.coefficients.num_attributes,
            "transaction_classes": linearized.coefficients.num_transactions,
            "unreduced_variables": self.estimate_model_size(
                self.coefficients,
                self.num_sites,
                allow_replication=self.allow_replication,
                latency=self.latency,
                symmetry_breaking=self.symmetry_breaking,
            )["variables"],
        }
        if warm_start is not None:
            metadata["warm_start_objective"] = warm_objective
            metadata["warm_start_kept"] = keep_warm
        return PartitioningResult(
            coefficients=self.coefficients,
            x=x,
            y=y,
            objective=objective,
            solver="qp",
            wall_time=wall_time,
            proven_optimal=proven_optimal,
            metadata=metadata,
        )

    def _warm_start_objective(
        self, warm_start: PartitioningResult, evaluator: SolutionEvaluator
    ) -> float:
        """The warm start's objective (4) on this model's coefficients;
        raises :class:`SolverError` when the model cannot accept it."""
        x, y = warm_start.x, warm_start.y
        expected_x = (self.coefficients.num_transactions, self.num_sites)
        expected_y = (self.coefficients.num_attributes, self.num_sites)
        if x.shape != expected_x or y.shape != expected_y:
            raise SolverError(
                f"warm start has x {x.shape}, y {y.shape}; this model on "
                f"{self.num_sites} sites needs x {expected_x}, y {expected_y}"
            )
        problems = feasibility_violations(self.coefficients, x, y)
        if not self.allow_replication and (y.sum(axis=1) > 1).any():
            problems.append("replicated attributes in a disjoint model")
        if problems:
            raise SolverError(f"warm start is infeasible: {problems[0]}")
        return evaluator.objective4(x, y)


def solve_qp(
    instance: ProblemInstance | CostCoefficients,
    num_sites: int,
    parameters: CostParameters | None = None,
    allow_replication: bool = True,
    latency: bool = False,
    time_limit: float | None = None,
    gap: float = PAPER_GAP,
    warm_start: PartitioningResult | None = None,
) -> PartitioningResult:
    """One-call convenience wrapper: a thin shim over the unified
    advisor API (``advise`` with strategy ``"qp"``), kept for
    compatibility and pinned by test to return the same result as the
    direct :class:`QpPartitioner` call.

    Prebuilt :class:`CostCoefficients` skip the advisor (which would
    rebuild them from the instance) and go to the partitioner directly.
    """
    from repro.api.advisor import advise
    from repro.api.request import SolveRequest

    if isinstance(instance, CostCoefficients):
        return QpPartitioner(
            instance,
            num_sites,
            parameters=parameters,
            allow_replication=allow_replication,
            latency=latency,
        ).solve(
            time_limit=time_limit, gap=gap, warm_start=warm_start
        )
    request = SolveRequest(
        instance=instance,
        num_sites=num_sites,
        parameters=parameters or CostParameters(),
        allow_replication=allow_replication,
        strategy="qp",
        options={"latency": latency, "gap": gap},
        time_limit=time_limit,
    )
    return advise(request, warm_start=warm_start).result
