"""The QP partitioner: exactness against brute force, options, limits."""

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError, SolverLimitError
from repro.instances.library import named_instance
from repro.partition.assignment import PartitioningResult, single_site_partitioning
from repro.qp.solver import QpPartitioner, solve_qp
from tests.conftest import brute_force_optimum, small_random_instance


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    @pytest.mark.parametrize("num_sites", [2, 3])
    def test_matches_brute_force_pure_cost(self, seed, num_sites):
        """With lambda = 1 (pure cost) the QP must find the enumerated
        global optimum of objective (4)."""
        instance = small_random_instance(seed, num_transactions=3, num_tables=2)
        parameters = CostParameters(load_balance_lambda=1.0)
        coefficients = build_coefficients(instance, parameters)
        expected, _, _ = brute_force_optimum(coefficients, num_sites)
        result = QpPartitioner(coefficients, num_sites).solve(gap=1e-9)
        assert result.objective == pytest.approx(expected, rel=1e-9)
        assert result.proven_optimal


class TestOptions:
    def test_single_site_equals_baseline(self, tiny_coefficients):
        result = QpPartitioner(tiny_coefficients, 1).solve()
        baseline = single_site_partitioning(tiny_coefficients)
        assert result.objective == pytest.approx(baseline.objective)

    def test_disjoint_solution_has_one_replica_each(self, tiny_coefficients):
        result = QpPartitioner(
            tiny_coefficients, 2, allow_replication=False
        ).solve()
        assert result.is_disjoint

    def test_disjoint_never_cheaper_than_replicated_blended(self, tiny_coefficients):
        """The disjoint feasible set is a subset: its optimal blended
        objective (6) can never beat the replicated one."""
        evaluator = SolutionEvaluator(tiny_coefficients)
        replicated = QpPartitioner(tiny_coefficients, 2).solve(gap=1e-9)
        disjoint = QpPartitioner(
            tiny_coefficients, 2, allow_replication=False
        ).solve(gap=1e-9)
        assert evaluator.objective6(replicated.x, replicated.y) <= (
            evaluator.objective6(disjoint.x, disjoint.y) + 1e-6
        )

    def test_conflicting_parameters_rejected(self, tiny_coefficients):
        with pytest.raises(SolverError, match="conflicting"):
            QpPartitioner(
                tiny_coefficients, 2,
                parameters=CostParameters(network_penalty=3.0),
            )

    def test_metadata_reports_model_size(self, tiny_coefficients):
        result = QpPartitioner(tiny_coefficients, 2).solve()
        assert result.metadata["variables"] > 0
        assert result.metadata["constraints"] > 0
        assert "backend" not in result.metadata  # HiGHS is the only MIP solver

    def test_warm_start_site_count_checked(self, tiny_coefficients):
        partitioner = QpPartitioner(tiny_coefficients, 3)
        other = QpPartitioner(tiny_coefficients, 2).solve()
        with pytest.raises(SolverError, match="sites"):
            partitioner.solve(warm_start=other)


def _collapsed(coefficients, num_sites):
    """Everything on site 0: feasible, with no transfer cost at all."""
    x = np.zeros((coefficients.num_transactions, num_sites), dtype=bool)
    y = np.zeros((coefficients.num_attributes, num_sites), dtype=bool)
    x[:, 0] = y[:, 0] = True
    return PartitioningResult(
        coefficients=coefficients, x=x, y=y,
        objective=SolutionEvaluator(coefficients).objective4(x, y),
        solver="collapsed",
    )


class TestWarmStart:
    """The warm start comes back only when strictly lower by objective
    (4), or when the time limit leaves HiGHS without any solution."""

    def test_tie_keeps_mip_answer(self, tiny_coefficients):
        first = QpPartitioner(tiny_coefficients, 2).solve(gap=1e-9)
        warmed = QpPartitioner(tiny_coefficients, 2).solve(
            gap=1e-9, warm_start=first
        )
        assert warmed.metadata["warm_start_kept"] is False
        assert warmed.objective == first.objective
        assert warmed.metadata["mip_gap"] == first.metadata["mip_gap"]
        assert warmed.proven_optimal

    def test_strictly_lower_warm_start_kept(self):
        """At a balance-heavy lambda the MIP spreads load at a higher
        cost (4) than the collapsed layout, which is then returned."""
        coefficients = build_coefficients(
            small_random_instance(5), CostParameters(load_balance_lambda=0.1)
        )
        warm = _collapsed(coefficients, 2)
        plain = QpPartitioner(coefficients, 2).solve(gap=1e-9)
        assert warm.objective < plain.objective
        result = QpPartitioner(coefficients, 2).solve(gap=1e-9, warm_start=warm)
        assert result.metadata["warm_start_kept"] is True
        assert result.objective == warm.objective
        np.testing.assert_array_equal(result.x, warm.x)
        np.testing.assert_array_equal(result.y, warm.y)
        assert result.metadata["mip_objective6"] == plain.metadata["mip_objective6"]
        # The gap is the returned answer's, in the MIP's objective (6):
        # its worse balance leaves it outside the requested gap.
        value = SolutionEvaluator(coefficients).objective6(warm.x, warm.y)
        bound = result.metadata["mip_bound"]
        assert result.metadata["mip_gap"] == pytest.approx(
            abs(value - bound) / max(1.0, abs(value))
        )
        assert result.metadata["mip_gap"] > 1e-9
        assert not result.proven_optimal

    def test_limit_without_mip_solution_returns_warm_start(self):
        coefficients = build_coefficients(named_instance("rndAt16x15", seed=20))
        partitioner = QpPartitioner(coefficients, 4)
        with pytest.raises(SolverLimitError):
            partitioner.solve(time_limit=0.0)
        warm = _collapsed(coefficients, 4)
        result = partitioner.solve(time_limit=0.0, warm_start=warm)
        assert result.metadata["warm_start_kept"] is True
        assert result.objective == warm.objective
        assert not result.proven_optimal

    def test_infeasible_warm_start_rejected(self, tiny_coefficients):
        warm = _collapsed(tiny_coefficients, 2)
        warm.y[:, 0] = False
        with pytest.raises(SolverError, match="infeasible"):
            QpPartitioner(tiny_coefficients, 2).solve(warm_start=warm)

    def test_replicated_warm_start_rejected_by_disjoint_model(
        self, tiny_coefficients
    ):
        warm = _collapsed(tiny_coefficients, 2)
        warm.y[:, 1] = True
        with pytest.raises(SolverError, match="disjoint"):
            QpPartitioner(
                tiny_coefficients, 2, allow_replication=False
            ).solve(warm_start=warm)


def test_solve_qp_convenience(tiny_instance):
    result = solve_qp(tiny_instance, 2)
    assert result.solver == "qp"
    assert result.num_sites == 2
