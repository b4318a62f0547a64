"""Parameter sweeps (the analysis package)."""

import pytest

from repro.analysis.sweeps import (
    lambda_sweep,
    penalty_sweep,
    replication_price_sweep,
    sites_sweep,
)
from tests.conftest import small_random_instance


@pytest.fixture(scope="module")
def instance():
    return small_random_instance(
        3, num_transactions=5, num_tables=3, max_attributes_per_table=6
    )


class TestPenaltySweep:
    def test_objective_monotone_in_penalty(self, instance):
        series = penalty_sweep(
            instance, num_sites=2, penalties=(0.0, 4.0, 16.0), time_limit=15
        )
        objectives = series.objectives()
        assert objectives == sorted(objectives)

    def test_point_fields_populated(self, instance):
        series = penalty_sweep(
            instance, num_sites=2, penalties=(8.0,), time_limit=15
        )
        point = series.points[0]
        assert point.objective > 0
        assert point.replication_factor >= 1.0
        assert point.max_load > 0

    def test_sa_solver_supported(self, instance):
        series = penalty_sweep(
            instance, num_sites=2, penalties=(0.0, 8.0), solver="sa", seed=0
        )
        assert len(series.points) == 2
        assert series.solver == "sa"

    def test_as_rows(self, instance):
        series = penalty_sweep(instance, penalties=(8.0,), time_limit=15)
        rows = series.as_rows()
        assert rows[0]["p"] == 8.0
        assert "objective" in rows[0]


class TestSitesSweep:
    def test_starts_at_single_site(self, instance):
        series = sites_sweep(instance, max_sites=3, time_limit=15)
        assert series.points[0].parameter == 1.0
        assert len(series.points) == 3

    def test_pure_cost_monotone_in_sites(self, instance):
        from repro.costmodel.config import CostParameters

        series = sites_sweep(
            instance, max_sites=3,
            parameters=CostParameters(load_balance_lambda=1.0),
            time_limit=15,
        )
        objectives = series.objectives()
        assert objectives[1] <= objectives[0] + 1e-6
        assert objectives[2] <= objectives[1] + 1e-6


class TestLambdaSweep:
    def test_max_load_shrinks_as_cost_weight_drops(self, instance):
        series = lambda_sweep(
            instance, num_sites=2, lambdas=(1.0, 0.5, 0.1), time_limit=15
        )
        loads = [point.max_load for point in series.points]
        # Max load is non-increasing as balance gains weight.
        assert loads[-1] <= loads[0] + 1e-6

    def test_objective4_never_below_pure_cost_optimum(self, instance):
        series = lambda_sweep(
            instance, num_sites=2, lambdas=(1.0, 0.1), time_limit=15
        )
        pure = series.points[0].objective
        balanced = series.points[1].objective
        assert balanced >= pure - 1e-6


class TestSweepCaching:
    def test_cached_sweep_matches_pointwise_solves(self, instance):
        """The sweep-level caches must not change any sweep point: the
        series equals solving each point from scratch."""
        from repro.costmodel.coefficients import build_coefficients
        from repro.costmodel.config import CostParameters
        from repro.qp.solver import QpPartitioner

        penalties = (0.0, 4.0, 16.0)
        series = penalty_sweep(
            instance, num_sites=2, penalties=penalties, time_limit=15
        )
        for penalty, point in zip(penalties, series.points):
            coefficients = build_coefficients(
                instance, CostParameters(network_penalty=penalty)
            )
            direct = QpPartitioner(coefficients, 2).solve(time_limit=15)
            assert point.objective == pytest.approx(direct.objective, rel=1e-9)

    def test_sa_sweep_unchanged_by_coefficient_cache(self, instance):
        """SA trajectories are chaotic in their inputs, so this pins the
        cached coefficients feeding them bitwise: same seed, same
        objective as a from-scratch solve."""
        from repro.costmodel.coefficients import build_coefficients
        from repro.costmodel.config import CostParameters
        from repro.sa.options import SaOptions
        from repro.sa.solver import SaPartitioner

        series = penalty_sweep(
            instance, num_sites=2, penalties=(8.0,), solver="sa", seed=3
        )
        coefficients = build_coefficients(
            instance, CostParameters(network_penalty=8.0)
        )
        direct = SaPartitioner(
            coefficients, 2,
            options=SaOptions(inner_loops=10, max_outer_loops=20, seed=3),
        ).solve()
        assert series.points[0].objective == direct.objective


class TestReplicationPriceSweep:
    def test_ratio_rows(self, instance):
        rows = replication_price_sweep(
            instance, num_sites=2, penalties=(0.0, 8.0), time_limit=15
        )
        assert len(rows) == 2
        for row in rows:
            assert row["replicated"] <= row["disjoint"] * 1.15
