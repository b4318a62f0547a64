"""findSolution sub-problems: greedy vs exact, forced replicas, repair."""

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
from repro.exceptions import SolverError
from repro.sa.state import random_transaction_placement
from repro.sa.subsolve import SubproblemSolver
from tests.conftest import small_random_instance
from tests.reference_subsolve import LoopSubproblemSolver


@pytest.fixture
def solver2(tiny_coefficients):
    return SubproblemSolver(tiny_coefficients, 2)


class TestOptimizeY:
    def test_forced_replicas_cover_reads(self, solver2, tiny_coefficients):
        rng = np.random.default_rng(0)
        x = random_transaction_placement(2, 2, rng)
        y = solver2.optimize_y_greedy(x)
        assert check_solution_feasible(tiny_coefficients, x, y)

    def test_every_attribute_covered(self, solver2):
        rng = np.random.default_rng(1)
        x = random_transaction_placement(2, 2, rng)
        y = solver2.optimize_y_greedy(x)
        assert (y.sum(axis=1) >= 1).all()

    def test_write_only_attribute_lands_at_writer_site(self):
        """With pure cost (lambda=1), a write-only attribute's single
        replica goes to the writing transaction's site: the
        -p*alpha*delta rebate makes it the cheapest covering site.

        (Note: the rebate can cancel but never overshoot the replica's
        own write+transfer cost, so k >= 0 always — replication is
        driven by co-location and covering, matching the paper's
        Table 4 where write-only attributes float to one site.)
        """
        from repro.model.schema import SchemaBuilder
        from repro.model.workload import Query, Transaction, Workload
        from repro.model.instance import ProblemInstance

        schema = SchemaBuilder("w").table("T", key=4, counter=8).build()
        workload = Workload(
            [
                Transaction("Reader", (Query.read("r", ["T.key"]),)),
                Transaction("Writer", (Query.write("w", ["T.counter"]),)),
            ]
        )
        instance = ProblemInstance(schema, workload)
        coefficients = build_coefficients(
            instance, CostParameters(load_balance_lambda=1.0)
        )
        solver = SubproblemSolver(coefficients, 2)
        x = np.zeros((2, 2), dtype=bool)
        x[instance.transaction_index["Reader"], 0] = True
        x[instance.transaction_index["Writer"], 1] = True
        y = solver.optimize_y_greedy(x)
        counter = instance.attribute_index["T.counter"]
        assert y[counter, 1] and not y[counter, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_greedy_matches_exact_pure_cost(self, seed):
        """For lambda = 1 the greedy y-step is provably optimal: compare
        against the exact MIP sub-solve."""
        instance = small_random_instance(seed)
        coefficients = build_coefficients(
            instance, CostParameters(load_balance_lambda=1.0)
        )
        solver = SubproblemSolver(coefficients, 3)
        evaluator = SolutionEvaluator(coefficients)
        rng = np.random.default_rng(seed)
        x = random_transaction_placement(coefficients.num_transactions, 3, rng)
        greedy = solver.optimize_y_greedy(x)
        exact = solver.optimize_y_exact(x)
        assert evaluator.objective6(x, greedy) == pytest.approx(
            evaluator.objective6(x, exact), rel=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_close_to_exact_with_load_balance(self, seed):
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        solver = SubproblemSolver(coefficients, 2)
        evaluator = SolutionEvaluator(coefficients)
        rng = np.random.default_rng(seed + 10)
        x = random_transaction_placement(coefficients.num_transactions, 2, rng)
        greedy_cost = evaluator.objective6(x, solver.optimize_y_greedy(x))
        exact_cost = evaluator.objective6(x, solver.optimize_y_exact(x))
        assert greedy_cost >= exact_cost - 1e-9
        assert greedy_cost <= exact_cost * 1.25  # within 25%


class TestDisjointY:
    def test_single_replica_everywhere(self, tiny_coefficients):
        solver = SubproblemSolver(tiny_coefficients, 2)
        x = np.zeros((2, 2), dtype=bool)
        x[:, 0] = True  # co-located -> disjoint feasible
        y = solver.optimize_y_greedy(x, disjoint=True)
        assert (y.sum(axis=1) == 1).all()
        assert check_solution_feasible(tiny_coefficients, x, y)

    def test_conflicting_readers_rejected(self, tiny_coefficients):
        solver = SubproblemSolver(tiny_coefficients, 2)
        x = np.zeros((2, 2), dtype=bool)
        x[0, 0] = x[1, 1] = True  # both read Narrow.key on different sites
        with pytest.raises(SolverError, match="disjoint"):
            solver.optimize_y_greedy(x, disjoint=True)


class TestOptimizeX:
    def test_respects_colocation(self, tiny_coefficients):
        solver = SubproblemSolver(tiny_coefficients, 2)
        y = np.zeros((5, 2), dtype=bool)
        y[:, 0] = True  # everything on site 0 only
        x = solver.optimize_x_greedy(y)
        assert x[:, 0].all()  # no transaction can leave site 0

    def test_allowed_sites_mask(self, tiny_coefficients):
        solver = SubproblemSolver(tiny_coefficients, 2)
        y = np.ones((5, 2), dtype=bool)
        allowed = solver.allowed_sites(y)
        assert allowed.all()
        y[:, 1] = False
        allowed = solver.allowed_sites(y)
        assert allowed[:, 0].all() and not allowed[:, 1].any()

    def test_repair_adds_missing_replicas(self, tiny_coefficients):
        solver = SubproblemSolver(tiny_coefficients, 2)
        x = np.zeros((2, 2), dtype=bool)
        x[0, 0] = x[1, 1] = True
        y = np.zeros((5, 2), dtype=bool)
        y[:, 0] = True
        repaired = solver.repair_y(x, y)
        assert check_solution_feasible(tiny_coefficients, x, repaired)
        # Repair only adds replicas, never removes.
        assert (repaired | y).sum() == repaired.sum()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_x_not_worse_than_greedy(self, seed):
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        solver = SubproblemSolver(coefficients, 2)
        evaluator = SolutionEvaluator(coefficients)
        rng = np.random.default_rng(seed)
        x0 = random_transaction_placement(coefficients.num_transactions, 2, rng)
        y = solver.optimize_y_greedy(x0)
        x_greedy = solver.optimize_x_greedy(y)
        x_exact = solver.optimize_x_exact(y)
        y_greedy = solver.repair_y(x_greedy, y)
        y_exact = solver.repair_y(x_exact, y)
        assert evaluator.objective6(x_exact, y_exact) <= (
            evaluator.objective6(x_greedy, y_greedy) + 1e-6
        )


class TestFastMatchesLoop:
    """The balance-aware placements must be *bitwise* equal to the
    reference loops of :class:`LoopSubproblemSolver` — same IEEE
    operations in the same order, only the per-iteration overhead gone."""

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("num_sites", [2, 4])
    def test_optimize_y_bitwise_equal(self, lam, num_sites):
        for seed in range(4):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=lam)
            )
            fast = SubproblemSolver(coefficients, num_sites)
            loop = LoopSubproblemSolver(coefficients, num_sites)
            rng = np.random.default_rng(seed)
            x = random_transaction_placement(
                coefficients.num_transactions, num_sites, rng
            )
            np.testing.assert_array_equal(
                fast.optimize_y_greedy(x), loop.optimize_y_greedy(x)
            )

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("num_sites", [2, 4])
    def test_optimize_x_bitwise_equal(self, lam, num_sites):
        for seed in range(4):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=lam)
            )
            fast = SubproblemSolver(coefficients, num_sites)
            loop = LoopSubproblemSolver(coefficients, num_sites)
            rng = np.random.default_rng(seed + 20)
            x0 = random_transaction_placement(
                coefficients.num_transactions, num_sites, rng
            )
            y = fast.optimize_y_greedy(x0)
            np.testing.assert_array_equal(
                fast.optimize_x_greedy(y), loop.optimize_x_greedy(y)
            )

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_disjoint_bitwise_equal(self, lam):
        for seed in range(4):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=lam)
            )
            fast = SubproblemSolver(coefficients, 3)
            loop = LoopSubproblemSolver(coefficients, 3)
            x = np.zeros((coefficients.num_transactions, 3), dtype=bool)
            x[:, seed % 3] = True  # co-located -> disjoint feasible
            np.testing.assert_array_equal(
                fast.optimize_y_greedy(x, disjoint=True),
                loop.optimize_y_greedy(x, disjoint=True),
            )

    def test_negative_candidate_branch_bitwise_equal(self):
        """Synthetic ``k`` with many negative entries exercises the
        cost-negative replica scan (real instances often have none).
        On the collapsed layout the forced replicas make site 0 the
        max-load site, so its candidates also pay a load overflow."""
        instance = small_random_instance(1)
        coefficients = build_coefficients(
            instance, CostParameters(load_balance_lambda=0.5)
        )
        num_sites = 3
        fast = SubproblemSolver(coefficients, num_sites)
        loop = LoopSubproblemSolver(coefficients, num_sites)
        rng = np.random.default_rng(0)
        num_attributes = coefficients.num_attributes
        spread = random_transaction_placement(
            coefficients.num_transactions, num_sites, rng
        )
        collapsed = np.zeros_like(spread)
        collapsed[:, 0] = True
        for x in (spread, collapsed):
            forced = fast.forced_y(x)
            for trial in range(5):
                k = rng.normal(scale=50.0, size=(num_attributes, num_sites))
                load_weight = rng.uniform(
                    0.0, 30.0, size=(num_attributes, num_sites)
                )
                assert (k < 0).sum() > 0
                np.testing.assert_array_equal(
                    fast.optimize_y_greedy(
                        x, k=k, load_weight=load_weight, forced=forced
                    ),
                    loop.optimize_y_greedy(
                        x, k=k, load_weight=load_weight, forced=forced
                    ),
                )

    def test_tie_break_prefers_first_site(self):
        """Equal scores must resolve to the lowest site index on both
        paths (the numpy argmin convention)."""
        instance = small_random_instance(2)
        coefficients = build_coefficients(
            instance, CostParameters(load_balance_lambda=0.5)
        )
        num_sites = 4
        fast = SubproblemSolver(coefficients, num_sites)
        loop = LoopSubproblemSolver(coefficients, num_sites)
        num_attributes = coefficients.num_attributes
        x = np.zeros((coefficients.num_transactions, num_sites), dtype=bool)
        x[:, 0] = True
        forced = fast.forced_y(x)
        k = np.zeros((num_attributes, num_sites))  # all scores tie
        load_weight = np.ones((num_attributes, num_sites))
        fast_y = fast.optimize_y_greedy(x, k=k, load_weight=load_weight, forced=forced)
        loop_y = loop.optimize_y_greedy(x, k=k, load_weight=load_weight, forced=forced)
        np.testing.assert_array_equal(fast_y, loop_y)


class TestPrecomputedInputs:
    """The keyword-only precomputed inputs (fed by the incremental
    evaluator) must reproduce the dense computation exactly."""

    @pytest.mark.parametrize("lam", [1.0, 0.6])
    @pytest.mark.parametrize("disjoint", [False, True])
    def test_optimize_y_matches_dense(self, lam, disjoint):
        for seed in range(3):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=lam)
            )
            solver = SubproblemSolver(coefficients, 3)
            rng = np.random.default_rng(seed)
            if disjoint:
                # Disjoint needs conflict-free forced sites.
                x = np.zeros((coefficients.num_transactions, 3), dtype=bool)
                x[:, 1] = True
            else:
                x = random_transaction_placement(
                    coefficients.num_transactions, 3, rng
                )
            xs = x.astype(float)
            k = lam * (coefficients.c1 @ xs + coefficients.c2[:, None])
            load_weight = coefficients.c3 @ xs + coefficients.c4[:, None]
            forced = solver.forced_y(x)
            np.testing.assert_array_equal(
                solver.optimize_y_greedy(
                    x, disjoint=disjoint, k=k, load_weight=load_weight, forced=forced
                ),
                solver.optimize_y_greedy(x, disjoint=disjoint),
            )

    @pytest.mark.parametrize("lam", [1.0, 0.6])
    def test_optimize_x_matches_dense(self, lam):
        for seed in range(3):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance, CostParameters(load_balance_lambda=lam)
            )
            solver = SubproblemSolver(coefficients, 3)
            rng = np.random.default_rng(seed)
            x0 = random_transaction_placement(coefficients.num_transactions, 3, rng)
            y = solver.optimize_y_greedy(x0)
            ys = y.astype(float)
            np.testing.assert_array_equal(
                solver.optimize_x_greedy(
                    y,
                    cost=lam * (coefficients.c1.T @ ys),
                    read_load=coefficients.c3.T @ ys,
                    missing=solver.phi.T @ (1.0 - ys),
                    static_load=coefficients.c4 @ ys,
                ),
                solver.optimize_x_greedy(y),
            )
