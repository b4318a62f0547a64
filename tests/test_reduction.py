"""Reasonable cuts (co-access groups, exact QP classes) and the 20/80
refinement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.tpcc import tpcc_instance
from repro.qp.linearize import build_linearized_model
from repro.qp.reduce import model_classes, reduce_coefficients
from repro.qp.solver import QpPartitioner
from repro.reduction.cuts import attribute_groups
from repro.reduction.heavy import IterativeRefinement, solve_iterative
from tests.conftest import small_random_instance


class TestAttributeGroups:
    def test_groups_partition_attributes(self, tiny_instance):
        groups = attribute_groups(tiny_instance)
        flattened = sorted(index for group in groups for index in group)
        assert flattened == list(range(tiny_instance.num_attributes))

    def test_identically_accessed_attributes_grouped(self, tiny_instance):
        groups = attribute_groups(tiny_instance)
        index = tiny_instance.attribute_index
        group_of = {}
        for g, members in enumerate(groups):
            for member in members:
                group_of[member] = g
        # Narrow.key and Narrow.value differ (Writer.find reads only key).
        assert group_of[index["Narrow.key"]] != group_of[index["Narrow.value"]]

    def test_tpcc_reduction_is_substantial(self):
        instance = tpcc_instance()
        groups = attribute_groups(instance)
        assert len(groups) < instance.num_attributes * 0.6

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_groups_never_cross_tables(self, seed):
        instance = small_random_instance(seed)
        for group in attribute_groups(instance):
            tables = {instance.attributes[a].table for a in group}
            assert len(tables) == 1


@pytest.fixture(scope="module")
def tpcc_coefficients():
    return build_coefficients(
        tpcc_instance(), CostParameters(load_balance_lambda=1.0)
    )


class TestGroupedInstance:
    """The QP's model over exact attribute classes (the grouped model)."""

    def test_grouped_widths_sum(self, tpcc_coefficients):
        _, classes = model_classes(tpcc_coefficients, allow_replication=True)
        reduced = reduce_coefficients(tpcc_coefficients, classes)
        assert reduced.num_attributes < tpcc_coefficients.num_attributes
        for name in ("c1", "c2", "c3", "c4"):
            assert getattr(reduced, name).sum() == pytest.approx(
                getattr(tpcc_coefficients, name).sum()
            )

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_grouping_is_lossless(self, seed):
        """The QP over attribute classes finds the optimum of a direct
        solve of the unreduced model."""
        instance = small_random_instance(seed)
        parameters = CostParameters(load_balance_lambda=1.0)
        coefficients = build_coefficients(instance, parameters)
        direct = build_linearized_model(coefficients, 2).model.solve(gap=1e-9)
        grouped = QpPartitioner(coefficients, 2).solve(gap=1e-9)
        assert grouped.metadata["attribute_classes"] < instance.num_attributes
        assert grouped.objective == pytest.approx(direct.objective, rel=1e-9)

    def test_expand_replicates_group_placement(self, tpcc_coefficients):
        partitioner = QpPartitioner(tpcc_coefficients, 2)
        result = partitioner.solve()
        for k in range(int(partitioner.classes.max()) + 1):
            rows = result.y[partitioner.classes == k]
            assert (rows == rows[0]).all()

    def test_reduction_ratio(self, tpcc_coefficients):
        result = QpPartitioner(tpcc_coefficients, 2).solve()
        ratio = (
            result.metadata["attribute_classes"]
            / tpcc_coefficients.num_attributes
        )
        assert 0 < ratio < 1.0


class TestHeavyFirst:
    def test_heavy_transactions_sorted_by_load(self):
        instance = small_random_instance(3, num_transactions=10)
        refinement = IterativeRefinement(instance, 2, heavy_fraction=0.2)
        heavy = refinement.heavy_transactions()
        assert len(heavy) == 2
        loads = refinement.transaction_loads()
        lightest_heavy = min(loads[t] for t in heavy)
        heaviest_light = max(
            (loads[t] for t in range(10) if t not in heavy), default=0.0
        )
        assert lightest_heavy >= heaviest_light

    def test_solve_is_feasible_and_reports_metadata(self):
        instance = small_random_instance(6, num_transactions=8)
        result = solve_iterative(instance, 2)
        assert result.solver == "qp-heavy"
        assert len(result.metadata["heavy_transactions"]) == 2
        assert "stage1_objective" in result.metadata

    def test_final_qp_not_worse_than_stage2(self):
        instance = small_random_instance(8, num_transactions=6)
        parameters = CostParameters(load_balance_lambda=1.0)
        stage2 = solve_iterative(instance, 2, parameters=parameters)
        refined = solve_iterative(
            instance, 2, parameters=parameters, final_qp=True
        )
        assert refined.objective <= stage2.objective + 1e-6
