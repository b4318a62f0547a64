"""The TPC-C instance: structure, conventions and headline results."""

import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.tpcc import tpcc_instance, tpcc_schema, tpcc_workload
from repro.partition.assignment import single_site_partitioning
from repro.qp.solver import QpPartitioner
from repro.sa.options import SaOptions
from repro.sa.solver import SaPartitioner


@pytest.fixture(scope="module")
def instance():
    return tpcc_instance()


class TestSchemaStructure:
    def test_92_attributes_9_tables(self, instance):
        """The paper's |A| = 92 (Table 3)."""
        assert instance.num_attributes == 92
        assert len(instance.schema) == 9

    def test_table_attribute_counts(self, instance):
        expected = {
            "Warehouse": 9, "District": 11, "Customer": 21, "History": 8,
            "NewOrder": 3, "Order": 8, "OrderLine": 10, "Item": 5, "Stock": 17,
        }
        for table, count in expected.items():
            assert len(instance.schema.table(table)) == count

    def test_five_transactions(self, instance):
        assert instance.num_transactions == 5
        names = {t.name for t in instance.transactions}
        assert names == {
            "NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel",
        }

    def test_customer_data_is_widest(self, instance):
        widths = {a.qualified_name: a.width for a in instance.attributes}
        assert max(widths, key=widths.get) == "Customer.C_DATA"


class TestStatisticsConventions:
    def test_queries_default_to_one_row(self, instance):
        query = instance.workload.transaction("NewOrder").queries[0]
        assert query.rows_for("Warehouse") == 1.0

    def test_iterated_queries_use_ten_rows(self, instance):
        for name in ("NewOrder.getItems", "NewOrder.getStock",
                     "Payment.getCustomerByLastName",
                     "OrderStatus.getOrderLines", "Delivery.getNewOrder",
                     "StockLevel.countLowStock"):
            transaction = instance.workload.transaction_of(name)
            query = next(q for q in transaction if q.name == name)
            touched = next(iter(query.tables))
            assert query.rows_for(touched) == 10.0, name

    def test_all_frequencies_equal_one(self, instance):
        assert all(q.frequency == 1.0 for q in instance.queries)

    def test_updates_are_split(self, instance):
        names = {q.name for q in instance.queries}
        assert "NewOrder.incrementNextOrderId:read" in names
        assert "NewOrder.incrementNextOrderId:write" in names

    def test_write_only_counters_not_in_read_sets(self, instance):
        """Table 4 fidelity: S_YTD / S_ORDER_CNT / S_REMOTE_CNT are not
        read by New-Order (they are pure increments)."""
        new_order = instance.workload.transaction("NewOrder")
        assert "Stock.S_YTD" not in new_order.read_attributes
        assert "Stock.S_ORDER_CNT" not in new_order.read_attributes
        assert "Stock.S_QUANTITY" in new_order.read_attributes  # via SELECT

    def test_item_image_id_unread(self, instance):
        """I_IM_ID is accessed by no TPC-C transaction (it floats freely
        in the paper's Table 4)."""
        for transaction in instance.workload:
            assert "Item.I_IM_ID" not in transaction.read_attributes
            assert "Item.I_IM_ID" not in transaction.written_attributes


class TestHeadlineResults:
    """The paper's key TPC-C findings, as shape assertions."""

    @pytest.fixture(scope="class")
    def coefficients(self, instance):
        return build_coefficients(instance, CostParameters())

    @pytest.fixture(scope="class")
    def baseline(self, coefficients):
        return single_site_partitioning(coefficients).objective

    @pytest.fixture(scope="class")
    def qp_by_sites(self, coefficients):
        results = {}
        for num_sites in (2, 3, 4):
            results[num_sites] = QpPartitioner(coefficients, num_sites).solve(
                time_limit=60
            )
        return results

    def test_partitioning_reduces_cost_substantially(self, qp_by_sites, baseline):
        """Paper: 37% reduction; we accept anything over 20%."""
        reduction = 1 - qp_by_sites[2].objective / baseline
        assert reduction > 0.20

    def test_little_gain_beyond_two_sites(self, qp_by_sites):
        """Paper Table 5: S=3,4 barely improve on S=2."""
        best = min(r.objective for r in qp_by_sites.values())
        assert qp_by_sites[2].objective <= best * 1.05

    def test_solution_uses_replication(self, qp_by_sites):
        assert qp_by_sites[3].replication_factor > 1.0

    def test_disjoint_is_worse(self, coefficients, qp_by_sites):
        disjoint = QpPartitioner(
            coefficients, 2, allow_replication=False
        ).solve(time_limit=60)
        ratio = qp_by_sites[2].objective / disjoint.objective
        assert ratio < 0.9  # paper: 64%

    def test_local_placement_cheaper(self, instance, qp_by_sites):
        local = build_coefficients(
            instance, CostParameters().with_local_placement()
        )
        local_result = QpPartitioner(local, 2).solve(time_limit=60)
        assert local_result.objective <= qp_by_sites[2].objective + 1e-6

    def test_sa_close_to_qp(self, coefficients, qp_by_sites):
        """Paper Table 3: SA within a few percent of QP on TPC-C."""
        sa = SaPartitioner(
            coefficients, 2,
            options=SaOptions(inner_loops=15, max_outer_loops=25, seed=1),
        ).solve()
        assert sa.objective <= qp_by_sites[2].objective * 1.10


def test_schema_and_workload_independent_construction():
    schema = tpcc_schema()
    workload = tpcc_workload()
    workload.validate_against(schema)
    assert len(workload) == 5
