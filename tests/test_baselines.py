"""Baseline partitioners: feasibility and relative quality."""

import numpy as np
import pytest

from repro.baselines.affinity import (
    affinity_matrix,
    affinity_partitioning,
    bond_energy_order,
)
from repro.baselines.greedy import greedy_binpack_partitioning
from repro.baselines.hillclimb import hill_climb_partitioning
from repro.baselines.round_robin import round_robin_partitioning
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import check_solution_feasible
from repro.qp.solver import QpPartitioner
from tests.conftest import small_random_instance

ALL_BASELINES = [
    round_robin_partitioning,
    hill_climb_partitioning,
    affinity_partitioning,
    greedy_binpack_partitioning,
]


@pytest.mark.parametrize("baseline", ALL_BASELINES)
@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_baselines_always_feasible(baseline, num_sites, tiny_instance):
    result = baseline(tiny_instance, num_sites)
    assert check_solution_feasible(result.coefficients, result.x, result.y)
    assert result.objective > 0


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_baselines_accept_prebuilt_coefficients(baseline, tiny_coefficients):
    result = baseline(tiny_coefficients, 2)
    assert result.coefficients is tiny_coefficients


def test_qp_never_worse_than_baselines_blended():
    """The exact solver's blended objective lower-bounds every baseline."""
    from repro.costmodel.evaluator import SolutionEvaluator

    for seed in (0, 1):
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        evaluator = SolutionEvaluator(coefficients)
        qp = QpPartitioner(coefficients, 2).solve(gap=1e-6)
        qp_blended = evaluator.objective6(qp.x, qp.y)
        for baseline in ALL_BASELINES:
            result = baseline(coefficients, 2)
            assert qp_blended <= evaluator.objective6(result.x, result.y) + 1e-6


class TestAffinityInternals:
    def test_affinity_matrix_symmetric_nonnegative(self, tiny_coefficients):
        matrix = affinity_matrix(tiny_coefficients)
        np.testing.assert_allclose(matrix, matrix.T)
        assert (matrix >= 0).all()

    def test_coaccessed_attributes_have_positive_affinity(self, tiny_coefficients):
        instance = tiny_coefficients.instance
        matrix = affinity_matrix(tiny_coefficients)
        a = instance.attribute_index["Narrow.key"]
        b = instance.attribute_index["Narrow.value"]
        blob = instance.attribute_index["Wide.blob"]
        assert matrix[a, b] > 0  # co-accessed by Reader.getNarrow
        assert matrix[a, blob] == 0  # never co-accessed

    def test_bond_energy_order_is_permutation(self, tiny_coefficients):
        matrix = affinity_matrix(tiny_coefficients)
        order = bond_energy_order(matrix)
        assert sorted(order) == list(range(matrix.shape[0]))

    def test_bond_energy_keeps_affine_attributes_adjacent(self):
        # Block-diagonal affinity: two clear clusters {0,1}, {2,3}.
        matrix = np.array(
            [
                [0.0, 10.0, 0.0, 0.0],
                [10.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 10.0],
                [0.0, 0.0, 10.0, 0.0],
            ]
        )
        order = bond_energy_order(matrix)
        position = {attribute: i for i, attribute in enumerate(order)}
        assert abs(position[0] - position[1]) == 1
        assert abs(position[2] - position[3]) == 1

    def test_empty_matrix(self):
        assert bond_energy_order(np.zeros((0, 0))) == []


def test_hill_climb_deterministic_with_seed(tiny_instance):
    first = hill_climb_partitioning(tiny_instance, 2, seed=1)
    second = hill_climb_partitioning(tiny_instance, 2, seed=1)
    assert first.objective == second.objective


def test_round_robin_spreads_transactions():
    instance = small_random_instance(2, num_transactions=6)
    result = round_robin_partitioning(instance, 3)
    per_site = result.x.sum(axis=0)
    assert (per_site == 2).all()


def test_binpack_metadata_reports_fragments(tiny_instance):
    result = greedy_binpack_partitioning(tiny_instance, 2)
    assert result.metadata["num_fragments"] >= 1
