"""The simulated annealer (Algorithm 1) and its building blocks."""

import dataclasses
import math

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients, read_sharing_components
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
from repro.sa.annealer import AnnealingTrace, SimulatedAnnealer, initial_temperature
from repro.sa.neighborhood import (
    extend_replication,
    move_components,
    move_transactions,
    subset_size,
)
from repro.sa.options import SaOptions
from repro.sa.state import component_placement_to_x, random_transaction_placement
from tests.conftest import brute_force_optimum, small_random_instance
from tests.reference_subsolve import DenseState


class TestInitialTemperature:
    def test_section_5_1_rule(self):
        """tau = -0.05 C* / ln(0.5): a 5%-worse solution is accepted
        with probability 50% initially."""
        reference = 1000.0
        tau = initial_temperature(reference)
        delta = 0.05 * reference
        assert math.exp(-delta / tau) == pytest.approx(0.5)

    def test_guards_zero_cost(self):
        assert initial_temperature(0.0) > 0


class TestNeighborhoods:
    def test_subset_size_at_least_one(self):
        assert subset_size(3, 0.1) == 1
        assert subset_size(100, 0.1) == 10

    def test_move_transactions_keeps_placement_valid(self):
        rng = np.random.default_rng(0)
        x = random_transaction_placement(20, 3, rng)
        moved = move_transactions(x, rng, 0.1)
        assert (moved.sum(axis=1) == 1).all()
        assert (moved != x).any()
        # Exactly 10% (2 of 20) relocated.
        assert (moved != x).any(axis=1).sum() == 2

    def test_move_transactions_single_site_noop(self):
        rng = np.random.default_rng(0)
        x = random_transaction_placement(5, 1, rng)
        np.testing.assert_array_equal(move_transactions(x, rng, 0.5), x)

    def test_extend_replication_only_adds(self):
        rng = np.random.default_rng(1)
        y = np.zeros((30, 3), dtype=bool)
        y[np.arange(30), rng.integers(0, 3, 30)] = True
        extended = extend_replication(y, rng, 0.1)
        assert (extended & ~y).sum() > 0  # something added
        assert not (y & ~extended).any()  # nothing removed
        assert extended.sum() > y.sum()  # strict growth (paper's rule)

    def test_extend_replication_skips_full_rows(self):
        rng = np.random.default_rng(2)
        y = np.ones((4, 2), dtype=bool)
        np.testing.assert_array_equal(extend_replication(y, rng, 1.0), y)

    def test_move_components(self):
        rng = np.random.default_rng(3)
        assignment = np.array([0, 0, 1, 2])
        moved = move_components(assignment, 3, rng, 0.5)
        assert moved.shape == assignment.shape
        assert (moved != assignment).sum() >= 1


class TestComponents:
    def test_read_sharing_components(self, tiny_coefficients):
        labels = read_sharing_components(tiny_coefficients)
        # Reader and Writer share Narrow.key -> one component.
        assert labels[0] == labels[1]

    def test_independent_transactions_split(self):
        instance = small_random_instance(
            0, num_transactions=6, num_tables=4, update_percent=0.0
        )
        coefficients = build_coefficients(instance, CostParameters())
        labels = read_sharing_components(coefficients)
        x = component_placement_to_x(labels, np.zeros(labels.max() + 1, dtype=int), 2)
        assert (x.sum(axis=1) == 1).all()


class TestAnnealer:
    def test_solution_always_feasible(self):
        for seed in range(4):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(instance, CostParameters())
            annealer = SimulatedAnnealer(
                coefficients, 3,
                SaOptions(inner_loops=5, max_outer_loops=5, seed=seed),
            )
            x, y, _ = annealer.run()
            assert check_solution_feasible(coefficients, x, y)

    def test_not_worse_than_single_site_blended(self):
        """The annealer's best blended objective should beat (or match)
        cramming everything on one site."""
        instance = small_random_instance(7)
        coefficients = build_coefficients(instance, CostParameters())
        evaluator = SolutionEvaluator(coefficients)
        num_t, num_a = coefficients.num_transactions, coefficients.num_attributes
        one_site = evaluator.objective6(
            np.pad(np.ones((num_t, 1), dtype=bool), ((0, 0), (0, 1))),
            np.pad(np.ones((num_a, 1), dtype=bool), ((0, 0), (0, 1))),
        )
        annealer = SimulatedAnnealer(
            coefficients, 2, SaOptions(inner_loops=10, max_outer_loops=15, seed=0)
        )
        _, _, best = annealer.run()
        assert best <= one_site + 1e-9

    def test_near_optimal_on_tiny_instances(self):
        """On enumerable instances with lambda = 1 the annealer should
        land within 10% of the brute-force optimum."""
        gaps = []
        for seed in (0, 3, 7):
            instance = small_random_instance(
                seed, num_transactions=3, num_tables=2
            )
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=1.0)
            )
            optimum, _, _ = brute_force_optimum(coefficients, 2)
            annealer = SimulatedAnnealer(
                coefficients, 2,
                SaOptions(inner_loops=15, max_outer_loops=20, seed=seed),
            )
            _, _, best = annealer.run()
            gaps.append(best / optimum)
        assert min(gaps) <= 1.001  # usually exact on at least one
        assert max(gaps) <= 1.10

    def test_trace_is_populated(self):
        instance = small_random_instance(1)
        coefficients = build_coefficients(instance, CostParameters())
        annealer = SimulatedAnnealer(
            coefficients, 2, SaOptions(inner_loops=4, max_outer_loops=3, seed=1)
        )
        annealer.run()
        assert annealer.trace.iterations > 0
        assert annealer.trace.outer_loops >= 1
        assert len(annealer.trace.best_history) == annealer.trace.outer_loops

    @pytest.mark.parametrize("disjoint", [False, True])
    def test_progress_hook_sees_every_iteration_and_changes_nothing(
        self, disjoint
    ):
        instance = small_random_instance(1)
        coefficients = build_coefficients(instance, CostParameters())
        options = SaOptions(
            inner_loops=4, max_outer_loops=3, seed=1, disjoint=disjoint
        )
        calls = []
        hooked = SimulatedAnnealer(coefficients, 2, options, progress=calls.append)
        plain = SimulatedAnnealer(coefficients, 2, options)
        x, y, best = hooked.run()
        plain_x, plain_y, plain_best = plain.run()
        assert best == plain_best
        np.testing.assert_array_equal(x, plain_x)
        np.testing.assert_array_equal(y, plain_y)
        assert calls == list(range(1, plain.trace.iterations + 1))

    def test_time_limit_respected(self):
        instance = small_random_instance(2, num_transactions=8, num_tables=6)
        coefficients = build_coefficients(instance, CostParameters())
        annealer = SimulatedAnnealer(
            coefficients, 3,
            SaOptions(inner_loops=1000, max_outer_loops=1000,
                      time_limit=0.3, seed=2),
        )
        import time

        started = time.perf_counter()
        annealer.run()
        assert time.perf_counter() - started < 3.0

    def test_disjoint_mode_produces_disjoint_solution(self):
        instance = small_random_instance(4)
        coefficients = build_coefficients(instance, CostParameters())
        annealer = SimulatedAnnealer(
            coefficients, 2,
            SaOptions(inner_loops=5, max_outer_loops=5, seed=4, disjoint=True),
        )
        x, y, _ = annealer.run()
        assert (y.sum(axis=1) == 1).all()
        assert check_solution_feasible(coefficients, x, y)

    def test_exact_subsolver_runs(self):
        instance = small_random_instance(5, num_transactions=3, num_tables=2)
        coefficients = build_coefficients(instance, CostParameters())
        annealer = SimulatedAnnealer(
            coefficients, 2,
            SaOptions(inner_loops=2, max_outer_loops=2, seed=5,
                      subsolver="exact", exact_time_limit=5.0),
        )
        x, y, _ = annealer.run()
        assert check_solution_feasible(coefficients, x, y)


def _collapsed_cost(coefficients, num_sites, disjoint=False):
    """Objective (6) of the trivial all-on-site-0 layout."""
    from repro.costmodel.evaluator import SolutionEvaluator
    from repro.sa.subsolve import SubproblemSolver

    x = np.zeros((coefficients.num_transactions, num_sites), dtype=bool)
    x[:, 0] = True
    subsolver = SubproblemSolver(coefficients, num_sites)
    y = subsolver.optimize_y_greedy(x, disjoint=disjoint)
    return SolutionEvaluator(coefficients).objective6(x, y)


class TestExitPaths:
    """Every exit — including wall-clock timeouts — runs through the
    collapsed one-site guard (regression for the unguarded time-limit
    early returns), with the incremental evaluator and with the dense
    reference state."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_timeout_blended_never_worse_than_collapsed(
        self, incremental, monkeypatch
    ):
        if not incremental:
            monkeypatch.setattr("repro.sa.annealer.IncrementalEvaluator", DenseState)
        for seed in range(5):
            instance = small_random_instance(seed, num_transactions=8, num_tables=6)
            coefficients = build_coefficients(instance, CostParameters())
            annealer = SimulatedAnnealer(
                coefficients, 3,
                SaOptions(inner_loops=50, max_outer_loops=50, seed=seed,
                          time_limit=0.0),
            )
            x, y, cost = annealer.run()
            assert check_solution_feasible(coefficients, x, y)
            assert cost <= _collapsed_cost(coefficients, 3) + 1e-9

    @pytest.mark.parametrize("incremental", [True, False])
    def test_timeout_disjoint_never_worse_than_collapsed(
        self, incremental, monkeypatch
    ):
        if not incremental:
            monkeypatch.setattr("repro.sa.annealer.IncrementalEvaluator", DenseState)
        for seed in range(5):
            instance = small_random_instance(seed, num_transactions=8, num_tables=6)
            coefficients = build_coefficients(instance, CostParameters())
            annealer = SimulatedAnnealer(
                coefficients, 3,
                SaOptions(inner_loops=50, max_outer_loops=50, seed=seed,
                          time_limit=0.0, disjoint=True),
            )
            x, y, cost = annealer.run()
            assert check_solution_feasible(coefficients, x, y)
            assert cost <= _collapsed_cost(coefficients, 3, disjoint=True) + 1e-9

    def test_timeout_guard_actually_bites(self):
        """On at least one seed the unguarded exit would have returned
        a random start strictly worse than the collapsed layout."""
        from repro.costmodel.evaluator import SolutionEvaluator
        from repro.sa.state import random_transaction_placement
        from repro.sa.subsolve import SubproblemSolver

        bites = 0
        for seed in range(5):
            instance = small_random_instance(seed, num_transactions=8, num_tables=6)
            coefficients = build_coefficients(instance, CostParameters())
            rng = np.random.default_rng(seed)
            x = random_transaction_placement(coefficients.num_transactions, 3, rng)
            subsolver = SubproblemSolver(coefficients, 3)
            y = subsolver.optimize_y_greedy(x)
            start_cost = SolutionEvaluator(coefficients).objective6(x, y)
            if start_cost > _collapsed_cost(coefficients, 3) + 1e-9:
                bites += 1
        assert bites > 0


class TestAnnealingTrace:
    def test_best_history_uses_default_factory(self):
        """Regression: the field must not default to None (nor share
        one list between instances)."""
        field = AnnealingTrace.__dataclass_fields__["best_history"]
        assert field.default is dataclasses.MISSING
        assert field.default_factory is list
        first, second = AnnealingTrace(), AnnealingTrace()
        first.best_history.append(1.0)
        assert second.best_history == []
