"""Regeneration of every table in the paper's evaluation section.

Absolute costs are not comparable to the paper's (the paper never
published its TPC-C statistics or random-instance weight distributions;
see DESIGN.md), so each table also carries the paper's reported numbers
as reference columns and, where meaningful, relative quantities
(reduction percentages, replication ratios) that *are* comparable.

Every solve is served through one per-table
:class:`~repro.api.Advisor`, so rows of the same instance share
coefficient products (bitwise identical to the direct solver calls the
tables used before the unified API).
"""

from __future__ import annotations

from dataclasses import asdict

from repro.api import Advisor, SolveRequest
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.config import CostParameters
from repro.exceptions import SolverLimitError
from repro.instances.library import TABLE1_DEFAULTS, TABLE2_INSTANCES, named_instance
from repro.instances.random_gen import generate_instance
from repro.instances.tpcc import tpcc_instance
from repro.model.statistics import describe_instance
from repro.partition.assignment import single_site_partitioning
from repro.partition.layout import layout_summary, render_layout

#: The paper's defaults (Section 5): p = 8, lambda = 0.1.
PAPER_PARAMETERS = CostParameters()


def _qp_request(
    instance,
    num_sites: int,
    profile: BenchProfile,
    parameters: CostParameters = PAPER_PARAMETERS,
    allow_replication: bool = True,
) -> SolveRequest:
    """The tables' QP solve as a request (profile gap and budget)."""
    return SolveRequest(
        instance=instance,
        num_sites=num_sites,
        parameters=parameters,
        allow_replication=allow_replication,
        strategy="qp",
        options={"gap": profile.qp_gap},
        time_limit=profile.qp_time_limit,
    )


def _sa_request(
    instance,
    num_sites: int,
    profile: BenchProfile,
    parameters: CostParameters = PAPER_PARAMETERS,
) -> SolveRequest:
    """The tables' SA solve as a request (profile-tuned options)."""
    option_fields = asdict(profile.sa_for(instance.num_attributes))
    disjoint = option_fields.pop("disjoint")
    return SolveRequest(
        instance=instance,
        num_sites=num_sites,
        parameters=parameters,
        allow_replication=not disjoint,
        strategy="sa",
        options=option_fields,
    )


# ----------------------------------------------------------------------
# Table 1 — parameter influence on the SA solver
# ----------------------------------------------------------------------
#: (label, parameter field, three tested values); bold defaults are the
#: middle entries, matching the paper.
TABLE1_SWEEP: list[tuple[str, str, list]] = [
    ("A max queries/txn", "max_queries_per_transaction", [1, 3, 5]),
    ("B percent updates", "update_percent", [0.0, 10.0, 30.0]),
    ("C max attrs/table", "max_attributes_per_table", [5, 15, 35]),
    ("D max table refs", "max_table_refs_per_query", [2, 5, 10]),
    ("E max attr refs", "max_attribute_refs_per_query", [5, 15, 25]),
    ("F widths", "attribute_widths", [(2.0, 4.0, 8.0), (4.0, 8.0), (4.0, 8.0, 16.0)]),
]


def table1(profile: BenchProfile | None = None) -> BenchTable:
    """Table 1: one-at-a-time parameter sweep, SA solver, S in {1,2,3}."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Table 1 — parameter influence (SA solver, p=8, "
        "load-balance priority 0.1)",
        columns=["class", "parameter", "value", "S=1", "S=2", "S=3",
                 "red% S=3"],
        notes=[
            "costs are objective (4); red% = reduction of S=3 vs S=1",
            "expected shape: largest reductions for few queries/txn, few "
            "updates, many attrs/table, moderate attr refs",
        ],
    )
    advisor = Advisor()
    for size in profile.table1_sizes:
        base = TABLE1_DEFAULTS.with_(
            num_transactions=size, num_tables=size, name=f"table1-{size}"
        )
        for label, field_name, values in TABLE1_SWEEP:
            for value in values:
                parameters = base.with_(**{field_name: value})
                instance = generate_instance(parameters, seed=profile.seed)
                coefficients = advisor.coefficient_cache(instance).coefficients(
                    PAPER_PARAMETERS
                )
                costs: dict[int, float] = {
                    1: single_site_partitioning(coefficients).objective
                }
                for num_sites in (2, 3):
                    costs[num_sites] = advisor.advise(
                        _sa_request(instance, num_sites, profile)
                    ).objective
                table.add_row(
                    **{
                        "class": f"{size}x{size}",
                        "parameter": label,
                        "value": str(value),
                        "S=1": round(costs[1]),
                        "S=2": round(costs[2]),
                        "S=3": round(costs[3]),
                        "red% S=3": round(100.0 * (1 - costs[3] / costs[1]), 1),
                    }
                )
    return table


# ----------------------------------------------------------------------
# Table 2 — the named random instances
# ----------------------------------------------------------------------
def table2(profile: BenchProfile | None = None) -> BenchTable:
    """Table 2: definition and measured sizes of the named instances."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Table 2 — named random instances (rndA = high, rndB = low "
        "cost-reduction potential)",
        columns=["name", "A", "B", "C", "D", "E", "F", "|T|", "#tables",
                 "|A| measured", "queries"],
    )
    for name, parameters in TABLE2_INSTANCES.items():
        instance = generate_instance(parameters, seed=profile.seed)
        stats = describe_instance(instance)
        table.add_row(
            name=name,
            A=parameters.max_queries_per_transaction,
            B=int(parameters.update_percent),
            C=parameters.max_attributes_per_table,
            D=parameters.max_table_refs_per_query,
            E=parameters.max_attribute_refs_per_query,
            F="{" + ",".join(str(int(w)) for w in parameters.attribute_widths) + "}",
            **{"|T|": parameters.num_transactions,
               "#tables": parameters.num_tables,
               "|A| measured": stats.num_attributes,
               "queries": stats.num_queries},
        )
    return table


# ----------------------------------------------------------------------
# Table 3 — QP vs SA
# ----------------------------------------------------------------------
#: The paper's Table 3 (costs in 1e6 units; parentheses = not proven
#: optimal; None = t/o without any solution).
PAPER_TABLE3: dict[tuple[str, int], tuple[float | None, float, float]] = {
    ("tpcc", 2): (0.133, 0.138, 0.208),
    ("tpcc", 3): (0.132, 0.132, 0.208),
    ("tpcc", 4): (0.132, 0.132, 0.208),
    ("rndAt4x15", 4): (0.332, 0.396, 0.933),
    ("rndAt8x15", 4): (0.324, 0.327, 0.808),
    ("rndAt16x15", 4): (0.267, 0.309, 1.180),
    ("rndAt32x15", 4): (0.315, 0.217, 1.491),
    ("rndAt64x15", 4): (0.269, 0.268, 1.452),
    ("rndAt4x100", 4): (8.001, 8.246, 7.946),
    ("rndAt8x100", 4): (7.681, 8.018, 7.454),
    ("rndAt16x100", 4): (None, 6.525, 8.741),
    ("rndAt32x100", 4): (None, 4.501, 8.916),
    ("rndAt64x100", 4): (None, 4.119, 9.591),
    ("rndBt4x15", 4): (0.303, 0.303, 0.303),
    ("rndBt8x15", 4): (0.448, 0.424, 0.440),
    ("rndBt16x15", 4): (0.333, 0.334, 0.385),
    ("rndBt32x15", 4): (0.319, 0.319, 0.361),
    ("rndBt64x15", 4): (0.221, 0.221, 0.229),
    ("rndBt4x100", 4): (4.484, 2.251, 2.251),
    ("rndBt8x100", 4): (4.323, 2.419, 2.419),
    ("rndBt16x100", 4): (2.001, 1.774, 1.774),
    ("rndBt32x100", 4): (2.419, 1.999, 1.999),
    ("rndBt64x100", 4): (None, 2.473, 2.473),
}

_TABLE3_SMALL = [
    "rndAt4x15", "rndAt8x15", "rndAt16x15",
    "rndBt4x15", "rndBt8x15", "rndBt16x15",
]
_TABLE3_LARGE = [
    "rndAt32x15", "rndAt64x15",
    "rndAt4x100", "rndAt8x100", "rndAt16x100", "rndAt32x100", "rndAt64x100",
    "rndBt32x15", "rndBt64x15",
    "rndBt4x100", "rndBt8x100", "rndBt16x100", "rndBt32x100", "rndBt64x100",
]


def _solve_qp_guarded(advisor, instance, num_sites, profile):
    """QP with limits; returns (cost_str, cost, seconds) with the paper's
    parenthesis convention for non-proven solutions and 't/o'."""
    try:
        result = advisor.advise(_qp_request(instance, num_sites, profile)).result
    except SolverLimitError:
        return "t/o", None, profile.qp_time_limit
    cost_str = (
        f"{round(result.objective)}"
        if result.proven_optimal
        else f"({round(result.objective)})"
    )
    return cost_str, result.objective, result.wall_time


def table3(profile: BenchProfile | None = None) -> BenchTable:
    """Table 3: QP vs SA on TPC-C and the named random instances."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Table 3 — QP vs SA (replication allowed, remote placement, "
        "p=8, load-balance priority 0.1)",
        columns=["instance", "|A|", "|T|", "|S|", "QP cost", "QP s",
                 "SA cost", "SA s", "S=1", "paper QP(1e6)", "paper SA(1e6)",
                 "paper S=1(1e6)"],
        notes=[
            "(...) = best incumbent when the QP limit was hit; t/o = no "
            "integer solution in time",
            "expected shape: SA scales far better; rndA gains 25-85%, rndB "
            "little; TPC-C ~25-40%",
        ],
    )

    advisor = Advisor()

    def add_rows(instance, sites_list):
        coefficients = advisor.coefficient_cache(instance).coefficients(
            PAPER_PARAMETERS
        )
        base = single_site_partitioning(coefficients).objective
        key_name = "tpcc" if instance.name.startswith("TPC-C") else instance.name
        for num_sites in sites_list:
            qp_str, _, qp_seconds = _solve_qp_guarded(
                advisor, instance, num_sites, profile
            )
            sa_result = advisor.advise(
                _sa_request(instance, num_sites, profile)
            ).result
            paper = PAPER_TABLE3.get((key_name, num_sites), (None, None, None))
            table.add_row(
                instance=instance.name,
                **{"|A|": instance.num_attributes,
                   "|T|": instance.num_transactions,
                   "|S|": num_sites,
                   "QP cost": qp_str,
                   "QP s": round(qp_seconds, 1),
                   "SA cost": round(sa_result.objective),
                   "SA s": round(sa_result.wall_time, 1),
                   "S=1": round(base),
                   "paper QP(1e6)": paper[0],
                   "paper SA(1e6)": paper[1],
                   "paper S=1(1e6)": paper[2]},
            )

    add_rows(tpcc_instance(), [2, 3, 4])
    names = list(_TABLE3_SMALL)
    if profile.include_large:
        names.extend(_TABLE3_LARGE)
    for name in names:
        add_rows(named_instance(name, seed=profile.seed), [4])
    return table


# ----------------------------------------------------------------------
# Table 4 — the TPC-C three-site layout
# ----------------------------------------------------------------------
def table4(profile: BenchProfile | None = None) -> BenchTable:
    """Table 4: a concrete QP partitioning of TPC-C over three sites."""
    profile = profile or get_profile()
    instance = tpcc_instance()
    result = Advisor().advise(_qp_request(instance, 3, profile)).result
    table = BenchTable(
        title="Table 4 — TPC-C partitioned over three sites (QP solver)",
        columns=["site", "transactions", "#attributes", "replicated attrs"],
    )
    from repro.partition.layout import build_layout

    layouts = build_layout(result)
    replica_counts = result.y.sum(axis=1)
    for layout in layouts:
        replicated = sum(
            1
            for qualified in layout.attributes
            if replica_counts[instance.attribute_index[qualified]] > 1
        )
        table.add_row(
            site=layout.site + 1,
            transactions=", ".join(sorted(layout.transactions)) or "-",
            **{"#attributes": len(layout.attributes),
               "replicated attrs": replicated},
        )
    table.notes.append(f"objective (4) = {result.objective:.0f}")
    table.notes.append("full layout:")
    table.notes.extend(render_layout(result).splitlines())
    table.notes.append(layout_summary(result))
    return table


# ----------------------------------------------------------------------
# Table 5 — replication vs disjoint
# ----------------------------------------------------------------------
#: Paper Table 5 (costs 1e5): (with replication, without, ratio %).
PAPER_TABLE5: dict[tuple[str, int], tuple[float, float, int | None]] = {
    ("tpcc", 1): (0.208, 0.208, None),
    ("tpcc", 2): (0.133, 0.207, 64),
    ("tpcc", 3): (0.132, 0.207, 64),
    ("tpcc", 4): (0.132, 0.207, 64),
    ("rndAt4x15", 2): (4.855, 6.799, 71),
    ("rndAt8x15", 2): (4.710, 5.809, 81),
    ("rndBt8x15", 2): (4.244, 4.402, 96),
    ("rndBt16x15", 2): (3.410, 3.852, 89),
}


def table5(profile: BenchProfile | None = None) -> BenchTable:
    """Table 5: the value of allowing attribute replication (QP solver)."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Table 5 — disjoint vs non-disjoint partitioning (QP solver)",
        columns=["instance", "|A|", "|T|", "|S|", "with repl", "w/o repl",
                 "ratio %", "paper ratio %"],
        notes=[
            "ratio = replicated cost / disjoint cost (lower = replication "
            "helps more); expected: replication never hurts",
        ],
    )

    advisor = Advisor()

    def add_row(instance, num_sites, key_name):
        if num_sites == 1:
            coefficients = advisor.coefficient_cache(instance).coefficients(
                PAPER_PARAMETERS
            )
            base = single_site_partitioning(coefficients).objective
            with_repl = without_repl = base
        else:
            with_repl = advisor.advise(
                _qp_request(instance, num_sites, profile)
            ).objective
            without_repl = advisor.advise(
                _qp_request(instance, num_sites, profile, allow_replication=False)
            ).objective
        ratio = (
            round(100.0 * with_repl / without_repl) if num_sites > 1 else None
        )
        paper = PAPER_TABLE5.get((key_name, num_sites))
        table.add_row(
            instance=instance.name,
            **{"|A|": instance.num_attributes,
               "|T|": instance.num_transactions,
               "|S|": num_sites,
               "with repl": round(with_repl),
               "w/o repl": round(without_repl),
               "ratio %": ratio,
               "paper ratio %": paper[2] if paper else None},
        )

    tpcc = tpcc_instance()
    for num_sites in (1, 2, 3, 4):
        add_row(tpcc, num_sites, "tpcc")
    for name in ("rndAt4x15", "rndAt8x15", "rndBt8x15", "rndBt16x15"):
        add_row(named_instance(name, seed=profile.seed), 2, name)
    return table


# ----------------------------------------------------------------------
# Table 6 — local vs remote placement
# ----------------------------------------------------------------------
#: Paper Table 6 (costs 1e5): (local QP, local SA, remote QP, remote SA).
PAPER_TABLE6: dict[tuple[str, int], tuple[float, float, float, float]] = {
    ("tpcc", 1): (1.916, 1.916, 1.916, 1.916),
    ("tpcc", 2): (1.210, 1.208, 1.221, 1.273),
    ("tpcc", 3): (1.208, 1.208, 1.220, 1.220),
    ("rndAt4x15", 2): (4.709, 4.742, 4.855, 4.888),
    ("rndAt8x15", 2): (4.424, 4.808, 4.710, 5.187),
    ("rndAt8x15u50", 2): (3.189, 3.313, 4.778, 4.873),
    ("rndBt8x15", 2): (4.365, 4.332, 4.244, 4.730),
    ("rndBt16x15", 2): (3.335, 3.387, 3.410, 3.404),
    ("rndBt16x15u50", 2): (5.066, 5.220, 5.438, 5.438),
}


def table6(profile: BenchProfile | None = None) -> BenchTable:
    """Table 6: local (p = 0) vs remote (p = 8) partition placement."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Table 6 — local (p=0) vs remote (p=8) placement, "
        "replication allowed",
        columns=["instance", "|A|", "|T|", "|S|", "local QP", "local SA",
                 "remote QP", "remote SA", "local/remote %",
                 "paper loc/rem %"],
        notes=[
            "only updates cause inter-site transfer: high-update instances "
            "benefit most from local placement",
        ],
    )
    local_parameters = PAPER_PARAMETERS.with_local_placement()
    advisor = Advisor()

    def solve_pair(instance, num_sites, parameters):
        if num_sites == 1:
            coefficients = advisor.coefficient_cache(instance).coefficients(
                parameters
            )
            cost = single_site_partitioning(coefficients).objective
            return cost, cost
        qp = advisor.advise(
            _qp_request(instance, num_sites, profile, parameters=parameters)
        ).objective
        sa = advisor.advise(
            _sa_request(instance, num_sites, profile, parameters=parameters)
        ).objective
        return qp, sa

    def add_row(instance, num_sites, key_name):
        local_qp, local_sa = solve_pair(instance, num_sites, local_parameters)
        remote_qp, remote_sa = solve_pair(instance, num_sites, PAPER_PARAMETERS)
        paper = PAPER_TABLE6.get((key_name, num_sites))
        paper_pct = (
            round(100.0 * paper[0] / paper[2]) if paper and paper[2] else None
        )
        table.add_row(
            instance=instance.name,
            **{"|A|": instance.num_attributes,
               "|T|": instance.num_transactions,
               "|S|": num_sites,
               "local QP": round(local_qp),
               "local SA": round(local_sa),
               "remote QP": round(remote_qp),
               "remote SA": round(remote_sa),
               "local/remote %": round(100.0 * local_qp / remote_qp)
               if remote_qp else None,
               "paper loc/rem %": paper_pct},
        )

    tpcc = tpcc_instance()
    for num_sites in (1, 2, 3):
        add_row(tpcc, num_sites, "tpcc")
    for name in (
        "rndAt4x15", "rndAt8x15", "rndAt8x15u50",
        "rndBt8x15", "rndBt16x15", "rndBt16x15u50",
    ):
        add_row(named_instance(name, seed=profile.seed), 2, name)
    return table
