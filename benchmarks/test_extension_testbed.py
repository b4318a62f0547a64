"""Extension: partitioning potential across the OLTP testbed.

The paper's conclusion calls for a library of realistic OLTP instances;
this benchmark runs the paper's algorithms over ours (TPC-C, TATP,
SmallBank, Voter) and reports the cost-reduction potential of each —
the kind of characterisation study the paper says such a library would
enable.

Expected shape: the benefit tracks *narrow access paths over wider
rows*, not raw row width. TPC-C (selective reads of wide Customer/Stock
rows) and Voter (100-row tally scans that read one 4-byte column of the
Votes row) gain a lot; SmallBank (2-column tables — nothing to split)
and TATP (its dominant read fetches the whole wide Subscriber row
anyway) gain little. The same lesson as the paper's rndA/rndB split:
gains need many attributes per table AND few attribute references per
query.
"""

from repro.bench.formatting import BenchTable, render_table
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.library import named_instance
from repro.partition.assignment import single_site_partitioning
from repro.qp.solver import QpPartitioner
from repro.sa.solver import SaPartitioner

TESTBED = ("tpcc", "tatp", "smallbank", "voter")


def _build_table(profile) -> BenchTable:
    table = BenchTable(
        title="Extension — the OLTP testbed under the paper's algorithms "
        "(2 sites, p=8)",
        columns=["instance", "|A|", "|T|", "S=1", "QP", "SA", "QP red%",
                 "replicas/attr"],
    )
    parameters = CostParameters()
    for name in TESTBED:
        instance = named_instance(name)
        coefficients = build_coefficients(instance, parameters)
        baseline = single_site_partitioning(coefficients).objective
        qp = QpPartitioner(coefficients, 2).solve(time_limit=profile.qp_time_limit)
        sa = SaPartitioner(
            coefficients, 2, options=profile.sa_for(instance.num_attributes)
        ).solve()
        table.add_row(
            instance=instance.name,
            **{"|A|": instance.num_attributes,
               "|T|": instance.num_transactions,
               "S=1": round(baseline),
               "QP": round(qp.objective),
               "SA": round(sa.objective),
               "QP red%": round(100.0 * (1 - qp.objective / baseline), 1),
               "replicas/attr": round(qp.replication_factor, 2)},
        )
    return table


def test_extension_testbed(benchmark, profile):
    table = benchmark.pedantic(_build_table, args=(profile,), rounds=1,
                               iterations=1)
    print()
    print(render_table(table))
    rows = {row["instance"]: row for row in table.rows}

    # Every instance: QP never worse than single-site by more than the
    # load-balance tie margin, and SA never below the QP floor.
    for row in table.rows:
        assert row["QP"] <= row["S=1"] * 1.05
        assert row["QP"] <= row["SA"] * 1.02

    # Narrow access paths over wider rows win big (TPC-C, Voter);
    # whole-row reads (TATP) and 2-column tables (SmallBank) do not.
    assert rows["TPC-C v5"]["QP red%"] > 15
    assert rows["Voter"]["QP red%"] > 15
    assert rows["SmallBank"]["QP red%"] < 10
    assert rows["TATP"]["QP red%"] < 20
