"""The OLTP testbed instances (TATP, SmallBank, Voter)."""

import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.library import instance_catalog, named_instance
from repro.instances.testbed import (
    smallbank_instance,
    tatp_instance,
    voter_instance,
)
from repro.model.statistics import describe_instance
from repro.partition.assignment import single_site_partitioning
from repro.qp.solver import QpPartitioner
from repro.sa.options import SaOptions
from repro.sa.solver import SaPartitioner


class TestTatp:
    def test_structure(self):
        instance = tatp_instance()
        assert len(instance.schema) == 4
        assert len(instance.schema.table("Subscriber")) == 34
        assert instance.num_transactions == 7

    def test_read_dominated_mix(self):
        """TATP is ~80% reads by frequency."""
        instance = tatp_instance()
        total = sum(q.frequency for q in instance.queries)
        writes = sum(q.frequency for q in instance.queries if q.is_write)
        assert writes / total < 0.3

    def test_get_subscriber_reads_whole_row(self):
        instance = tatp_instance()
        transaction = instance.workload.transaction("GetSubscriberData")
        assert len(transaction.read_attributes) == 34

    def test_partitioning_separates_flag_groups(self):
        """The wide Subscriber row with narrow access paths should
        benefit from vertical partitioning."""
        instance = tatp_instance()
        coefficients = build_coefficients(instance, CostParameters())
        baseline = single_site_partitioning(coefficients).objective
        result = QpPartitioner(coefficients, 2).solve(time_limit=30)
        assert result.objective <= baseline


class TestSmallBank:
    def test_structure(self):
        instance = smallbank_instance()
        assert instance.num_attributes == 6
        assert instance.num_transactions == 6

    def test_update_heavy(self):
        stats = describe_instance(smallbank_instance())
        assert stats.num_write_queries >= 5

    def test_solvable(self):
        instance = smallbank_instance()
        result = SaPartitioner(
            instance, 2, options=SaOptions(inner_loops=5, max_outer_loops=5, seed=0)
        ).solve()
        assert result.objective > 0


class TestVoter:
    def test_structure(self):
        instance = voter_instance()
        assert instance.num_attributes == 9
        assert instance.num_transactions == 3

    def test_vote_dominates_mix(self):
        instance = voter_instance()
        vote = instance.workload.transaction("Vote")
        leaderboard = instance.workload.transaction("Leaderboard")
        assert vote.queries[0].frequency > leaderboard.queries[0].frequency

    def test_insert_writes_whole_row(self):
        instance = voter_instance()
        insert = next(
            q for q in instance.queries if q.name == "Vote.insert"
        )
        assert len(insert.attributes) == 5


class TestCatalogIntegration:
    def test_catalog_lists_testbed(self):
        catalog = instance_catalog()
        for name in ("tatp", "smallbank", "voter"):
            assert name in catalog

    @pytest.mark.parametrize("name", ["tatp", "smallbank", "voter"])
    def test_named_instance_resolves(self, name):
        instance = named_instance(name)
        assert instance.num_attributes > 0

    @pytest.mark.parametrize("name", ["tatp", "smallbank", "voter"])
    def test_all_testbed_instances_partition_feasibly(self, name):
        instance = named_instance(name)
        coefficients = build_coefficients(instance, CostParameters())
        result = SaPartitioner(
            coefficients, 3,
            options=SaOptions(inner_loops=5, max_outer_loops=8, seed=1),
        ).solve()
        from repro.costmodel.evaluator import check_solution_feasible

        assert check_solution_feasible(coefficients, result.x, result.y)
        # Never worse than single-site (the collapse guard).
        baseline = single_site_partitioning(coefficients).objective
        assert result.metadata["objective6"] <= baseline + 1e-6
