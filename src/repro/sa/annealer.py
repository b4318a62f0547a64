"""Algorithm 1: the simulated-annealing loop.

The inner loop evaluates one candidate per iteration.  The cost of the
incumbent is kept as mutable state in an
:class:`~repro.costmodel.incremental.IncrementalEvaluator`: a candidate
is probed inside a ``begin_trial`` / ``commit``-or-``rollback`` bracket,
so its objective (6) and the greedy sub-problem inputs are produced from
delta updates instead of dense ``(|A|, |T|, |S|)`` products.  The dense
:class:`~repro.costmodel.evaluator.SolutionEvaluator` prices the
collapsed-layout guard and is the oracle the tests check the state
against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, read_sharing_components
from repro.costmodel.evaluator import SolutionEvaluator
from repro.costmodel.incremental import IncrementalEvaluator
from repro.sa.neighborhood import (
    extend_replication,
    merge_sites,
    move_components,
    move_transactions,
)
from repro.sa.options import (
    INITIAL_ACCEPT_PROBABILITY,
    INITIAL_WORSE_FRACTION,
    SaOptions,
)
from repro.sa.state import component_placement_to_x, random_transaction_placement
from repro.sa.subsolve import SubproblemSolver


@dataclass
class AnnealingTrace:
    """Progress record of one annealing run (for tests and plots)."""

    iterations: int = 0
    accepted: int = 0
    accepted_worse: int = 0
    outer_loops: int = 0
    #: best objective6 after each outer loop
    best_history: list[float] = field(default_factory=list)


class SimulatedAnnealer:
    """Runs Algorithm 1 against fixed cost coefficients.

    The annealer minimises the blended objective (6); the best visited
    solution (by objective (6)) is returned together with its objective
    (4) value, matching the paper's reporting convention.  Every exit
    path — freeze, patience, loop cap and wall-clock timeout — is
    guarded by the collapsed one-site layout, so the returned solution
    is never worse than the trivial ``|S| = 1`` placement.

    ``progress``, when given, is called with the iteration count once
    per inner iteration; it returns nothing and touches no annealer
    state, so it cannot change the result (a forked portfolio worker
    heartbeats from it).
    """

    def __init__(
        self,
        coefficients: CostCoefficients,
        num_sites: int,
        options: SaOptions | None = None,
        progress: Callable[[int], None] | None = None,
    ):
        self.coefficients = coefficients
        self.num_sites = num_sites
        self.options = options or SaOptions()
        self.progress = progress
        self.evaluator = SolutionEvaluator(coefficients)
        self.subsolver = SubproblemSolver(coefficients, num_sites)
        self.trace = AnnealingTrace()

    # ------------------------------------------------------------------
    def run(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Anneal and return ``(x, y, best_objective6)``."""
        options = self.options
        rng = np.random.default_rng(options.seed)
        started = time.perf_counter()

        if options.disjoint:
            return self._run_disjoint(rng, started)

        warm = self._warm_start_matrix()
        if warm is not None:
            # Warm start: restart 0's initial solution replays the
            # incumbent (repaired to feasibility), so the best visited
            # cost is <= the stay-put cost by construction.
            x, y = warm_start_solution(
                self.subsolver, warm, disjoint=False
            )[:2]
        else:
            # Line 3-5: random x, findSolution with x fixed.
            x = random_transaction_placement(
                self.coefficients.num_transactions, self.num_sites, rng
            )
            y = self._optimize_y(x)
        incremental = self._make_incremental(x, y)
        current_cost = incremental.objective6()
        best_x, best_y, best_cost = x, y, current_cost

        # Section 5.1 temperature rule.
        tau = initial_temperature(best_cost)
        freeze_tau = tau * options.freeze_ratio
        fix = "x"
        stale_outer = 0

        for outer in range(options.max_outer_loops):
            improved = False
            for _ in range(options.inner_loops):
                self.trace.iterations += 1
                if self.progress is not None:
                    self.progress(self.trace.iterations)
                if (
                    options.time_limit is not None
                    and time.perf_counter() - started > options.time_limit
                ):
                    self._finish(outer + 1)
                    return self._best_against_collapsed(best_x, best_y, best_cost)
                # Lines 8-10: perturb both vectors, re-optimise the free one.
                if rng.random() < options.merge_probability:
                    candidate_x = merge_sites(x, rng)
                else:
                    candidate_x = move_transactions(x, rng, options.move_fraction)
                candidate_y = extend_replication(y, rng, options.move_fraction)
                incremental.begin_trial()
                if fix == "x":
                    new_x = candidate_x
                    incremental.assign_x(new_x)
                    new_y = self._optimize_y(new_x, incremental)
                    incremental.assign_y(new_y)
                else:
                    incremental.assign_y(candidate_y)
                    new_x = self._optimize_x(candidate_y, incremental)
                    incremental.assign_x(new_x)
                    new_y = candidate_y | incremental.forced_y()
                    incremental.assign_y(new_y)
                new_cost = incremental.objective6()
                delta = new_cost - current_cost
                if delta <= 0 or rng.random() < math.exp(-delta / tau):
                    incremental.commit()
                    self.trace.accepted += 1
                    if delta > 0:
                        self.trace.accepted_worse += 1
                    x, y, current_cost = new_x, new_y, new_cost
                    if current_cost < best_cost:
                        best_x, best_y, best_cost = x, y, current_cost
                        improved = True
                else:
                    incremental.rollback()
                fix = "y" if fix == "x" else "x"
            tau *= options.cooling_rate
            self.trace.outer_loops = outer + 1
            self.trace.best_history.append(best_cost)
            stale_outer = 0 if improved else stale_outer + 1
            if tau < freeze_tau or stale_outer >= options.patience:
                break
        self._finish(self.trace.outer_loops)
        return self._best_against_collapsed(best_x, best_y, best_cost)

    # ------------------------------------------------------------------
    def _run_disjoint(
        self, rng: np.random.Generator, started: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Disjoint variant: anneal over component placements.

        Transactions sharing read attributes must be co-located when no
        replication is allowed, so the unit of movement is the connected
        component of the read-sharing graph and ``y`` follows ``x``
        deterministically via the disjoint sub-solver.
        """
        options = self.options
        labels = read_sharing_components(self.coefficients)
        num_components = int(labels.max()) + 1
        warm = self._warm_start_matrix()
        if warm is not None:
            # Deterministic warm start: each component goes to the site
            # holding the most of its read attributes in the incumbent.
            assignment = majority_component_assignment(
                labels, num_components, self.num_sites, self.coefficients, warm
            )
        else:
            assignment = rng.integers(0, self.num_sites, size=num_components)
        x = component_placement_to_x(labels, assignment, self.num_sites)
        y = self.subsolver.optimize_y_greedy(x, disjoint=True)
        incremental = self._make_incremental(x, y)
        current_cost = incremental.objective6()
        best = (x, y, current_cost)

        tau = initial_temperature(current_cost)
        freeze_tau = tau * options.freeze_ratio
        stale_outer = 0
        for outer in range(options.max_outer_loops):
            improved = False
            for _ in range(options.inner_loops):
                self.trace.iterations += 1
                if self.progress is not None:
                    self.progress(self.trace.iterations)
                if (
                    options.time_limit is not None
                    and time.perf_counter() - started > options.time_limit
                ):
                    self._finish(outer + 1)
                    return self._best_against_collapsed(*best)
                candidate = move_components(
                    assignment, self.num_sites, rng, options.move_fraction
                )
                new_x = component_placement_to_x(labels, candidate, self.num_sites)
                incremental.begin_trial()
                incremental.assign_x(new_x)
                k, load_weight, forced = incremental.y_subproblem_inputs()
                new_y = self.subsolver.optimize_y_greedy(
                    new_x, disjoint=True, k=k, load_weight=load_weight, forced=forced
                )
                incremental.assign_y(new_y)
                new_cost = incremental.objective6()
                delta = new_cost - current_cost
                if delta <= 0 or rng.random() < math.exp(-delta / tau):
                    incremental.commit()
                    self.trace.accepted += 1
                    if delta > 0:
                        self.trace.accepted_worse += 1
                    assignment, x, y, current_cost = candidate, new_x, new_y, new_cost
                    if current_cost < best[2]:
                        best = (x, y, current_cost)
                        improved = True
                else:
                    incremental.rollback()
            tau *= options.cooling_rate
            self.trace.outer_loops = outer + 1
            self.trace.best_history.append(best[2])
            stale_outer = 0 if improved else stale_outer + 1
            if tau < freeze_tau or stale_outer >= options.patience:
                break
        self._finish(self.trace.outer_loops)
        return self._best_against_collapsed(*best)

    # ------------------------------------------------------------------
    def _best_against_collapsed(
        self, best_x: np.ndarray, best_y: np.ndarray, best_cost: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Guard: never return worse than the trivial one-site layout.

        The all-on-one-site solution is always feasible for any |S|;
        on low-potential instances (the paper's rndB class, where its
        Table 3 reports SA == S=1) it is frequently optimal, and this
        makes that outcome deterministic instead of search-dependent.
        Every exit path — including wall-clock timeouts — runs through
        this guard.
        """
        num_transactions = self.coefficients.num_transactions
        x = np.zeros((num_transactions, self.num_sites), dtype=bool)
        x[:, 0] = True
        y = self.subsolver.optimize_y_greedy(x, disjoint=self.options.disjoint)
        cost = self.evaluator.objective6(x, y)
        if cost < best_cost:
            return x, y, cost
        return best_x, best_y, best_cost

    def _warm_start_matrix(self) -> np.ndarray | None:
        """The incumbent ``(|A|, |S|)`` indicator, or ``None``."""
        if self.options.warm_start is None:
            return None
        from repro.partition.current_layout import CurrentLayout

        layout = CurrentLayout.from_dict(self.options.warm_start)
        return layout.to_matrix(self.coefficients.instance, self.num_sites)

    def _make_incremental(
        self, x: np.ndarray, y: np.ndarray
    ) -> IncrementalEvaluator:
        incremental = IncrementalEvaluator(self.coefficients, self.num_sites)
        incremental.reset(x, y)
        return incremental

    def _optimize_y(
        self, x: np.ndarray, incremental: IncrementalEvaluator | None = None
    ) -> np.ndarray:
        """``findSolution`` for ``y``; the greedy takes its inputs from
        ``incremental``, or computes them densely for the initial
        solution, before any state exists."""
        if self.options.subsolver == "exact":
            return self.subsolver.optimize_y_exact(
                x, time_limit=self.options.exact_time_limit
            )
        if incremental is None:
            return self.subsolver.optimize_y_greedy(x)
        k, load_weight, forced = incremental.y_subproblem_inputs()
        return self.subsolver.optimize_y_greedy(
            x, k=k, load_weight=load_weight, forced=forced
        )

    def _optimize_x(
        self, y: np.ndarray, incremental: IncrementalEvaluator
    ) -> np.ndarray:
        if self.options.subsolver == "exact":
            return self.subsolver.optimize_x_exact(
                y, time_limit=self.options.exact_time_limit
            )
        cost, read_load, missing, static_load = incremental.x_subproblem_inputs()
        return self.subsolver.optimize_x_greedy(
            y,
            cost=cost,
            read_load=read_load,
            missing=missing,
            static_load=static_load,
        )

    def _finish(self, outer_loops: int) -> None:
        self.trace.outer_loops = outer_loops


def warm_start_solution(
    subsolver: SubproblemSolver, y0: np.ndarray, disjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The deterministic "stay-put" solution grown from an incumbent.

    Returns ``(x, y, assignment)``: transactions placed greedily
    against the incumbent replicas, then the incumbent repaired to
    feasibility under that placement (replicated mode), or the
    majority-site component placement with its derived disjoint ``y``.
    Shared between the annealer's warm start and
    :meth:`~repro.api.advisor.Advisor.readvise`'s stay-put costing, so
    "restart 0 replays the incumbent" and "the stay-put cost" are the
    same solution by construction.
    """
    coefficients = subsolver.coefficients
    num_sites = subsolver.num_sites
    y0 = np.asarray(y0) > 0.5  # boolean replica indicator
    if disjoint:
        labels = read_sharing_components(coefficients)
        num_components = int(labels.max()) + 1
        assignment = majority_component_assignment(
            labels, num_components, num_sites, coefficients, y0
        )
        x = component_placement_to_x(labels, assignment, num_sites)
        y = subsolver.optimize_y_greedy(x, disjoint=True)
        return x, y, assignment
    x = subsolver.optimize_x_greedy(y0)
    y = subsolver.repair_y(x, y0)
    return x, y, None


def majority_component_assignment(
    labels: np.ndarray,
    num_components: int,
    num_sites: int,
    coefficients: CostCoefficients,
    y0: np.ndarray,
) -> np.ndarray:
    """Per read-sharing component, the incumbent site holding most of
    the component's read attributes (lowest site on ties; components
    reading nothing go to site 0)."""
    phi = coefficients.phi_bool  # (|A|, |T|)
    votes = np.zeros((num_components, num_sites))
    for component in range(num_components):
        transactions = np.flatnonzero(labels == component)
        attributes = np.flatnonzero(phi[:, transactions].any(axis=1))
        if attributes.size:
            votes[component] = y0[attributes].sum(axis=0)
    # argmax breaks ties toward the lowest site, and all-zero vote rows
    # (attribute-less components) land on site 0.
    return votes.argmax(axis=1)


def initial_temperature(
    reference_cost: float,
    worse_fraction: float = INITIAL_WORSE_FRACTION,
    accept_probability: float = INITIAL_ACCEPT_PROBABILITY,
) -> float:
    """Section 5.1: ``tau = -worse_fraction * C* / ln(accept_probability)``.

    Chosen so a solution ``worse_fraction`` worse than the reference is
    accepted with ``accept_probability`` in the first iterations.
    """
    reference_cost = max(abs(reference_cost), 1e-12)
    return -worse_fraction * reference_cost / math.log(accept_probability)
