"""Ablation benchmarks beyond the paper's tables.

Each probes one design decision the paper discusses but does not
quantify in a table:

* write-accounting modes (Section 2.1's three choices),
* the reasonable-cuts reduction (Section 4) as the QP's exact
  attribute classes,
* the 20/80 heavy-first refinement (Section 4),
* the Appendix-A latency extension,
* the QP/SA solvers vs classic baselines.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.baselines import (
    affinity_partitioning,
    greedy_binpack_partitioning,
    hill_climb_partitioning,
    round_robin_partitioning,
)
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.evaluator import SolutionEvaluator
from repro.instances.library import named_instance
from repro.partition.assignment import single_site_partitioning
from repro.qp.linearize import build_linearized_model
from repro.qp.solver import QpPartitioner
from repro.reduction.heavy import IterativeRefinement
from repro.sa.solver import SaPartitioner

PAPER_PARAMETERS = CostParameters()


def ablation_write_accounting(profile: BenchProfile | None = None) -> BenchTable:
    """Cost of the same layout under the three write accountings."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Ablation — Section 2.1 write-accounting modes",
        columns=["instance", "|S|", "accounting", "objective (4)",
                 "write access AW", "vs paper mode %"],
        notes=[
            "the same QP layout re-evaluated: ALL overestimates AW, "
            "RELEVANT is exact, NONE drops it",
        ],
    )
    for name in ("tpcc", "rndAt8x15"):
        instance = named_instance(name, seed=profile.seed)
        coefficients = build_coefficients(instance, PAPER_PARAMETERS)
        result = QpPartitioner(coefficients, 2).solve(time_limit=profile.qp_time_limit)
        reference = None
        for accounting in (
            WriteAccounting.ALL_ATTRIBUTES,
            WriteAccounting.RELEVANT_ATTRIBUTES,
            WriteAccounting.NO_ATTRIBUTES,
        ):
            parameters = replace(PAPER_PARAMETERS, write_accounting=accounting)
            mode_coefficients = build_coefficients(instance, parameters)
            evaluator = SolutionEvaluator(mode_coefficients)
            breakdown = evaluator.breakdown(result.x, result.y)
            if reference is None:
                reference = breakdown.objective4
            table.add_row(
                instance=instance.name,
                **{"|S|": 2,
                   "accounting": accounting.value,
                   "objective (4)": round(breakdown.objective4),
                   "write access AW": round(breakdown.write_access),
                   "vs paper mode %": round(
                       100.0 * breakdown.objective4 / reference, 1
                   )},
            )
    return table


def ablation_reduction(profile: BenchProfile | None = None) -> BenchTable:
    """Reasonable cuts as the QP's exact attribute classes: model size
    and solve time against a direct solve of the unreduced model (7)."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Ablation — Section 4 reasonable cuts (exact attribute classes)",
        columns=["instance", "|A|", "groups", "QP vars full", "QP vars grouped",
                 "cost full", "cost grouped", "time full s", "time grouped s"],
        notes=[
            "groups = the QP's exact attribute classes; under lambda < 1 "
            "only pinned attributes fuse, so costs must match exactly",
        ],
    )
    for name in ("tpcc", "rndAt8x15", "rndAt16x15"):
        instance = named_instance(name, seed=profile.seed)
        coefficients = build_coefficients(instance, PAPER_PARAMETERS)
        started = time.perf_counter()
        full_model = build_linearized_model(coefficients, 2)
        solution = full_model.model.solve(time_limit=profile.qp_time_limit)
        full_time = time.perf_counter() - started
        full_cost = SolutionEvaluator(coefficients).objective4(
            *full_model.extract(solution.values)
        )
        grouped = QpPartitioner(coefficients, 2).solve(
            time_limit=profile.qp_time_limit
        )
        metadata = grouped.metadata
        table.add_row(
            instance=instance.name,
            **{"|A|": instance.num_attributes,
               "groups": metadata["attribute_classes"],
               "QP vars full": full_model.model.num_variables,
               "QP vars grouped": metadata["variables"],
               "cost full": round(full_cost),
               "cost grouped": round(grouped.objective),
               "time full s": round(full_time, 2),
               "time grouped s": round(grouped.wall_time, 2)},
        )
    return table


def ablation_heavy(profile: BenchProfile | None = None) -> BenchTable:
    """The 20/80 heavy-first strategy vs direct solves."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Ablation — Section 4 heavy-first (20/80) refinement",
        columns=["instance", "|T|", "heavy txns", "heavy-first cost",
                 "SA cost", "QP cost", "heavy-first s", "QP s"],
    )
    for name in ("rndAt8x15", "rndBt16x15"):
        instance = named_instance(name, seed=profile.seed)
        coefficients = build_coefficients(instance, PAPER_PARAMETERS)
        refinement = IterativeRefinement(instance, 2, PAPER_PARAMETERS)
        heavy_result = refinement.solve(time_limit=profile.qp_time_limit)
        sa_result = SaPartitioner(
            coefficients, 2, options=profile.sa_for(instance.num_attributes)
        ).solve()
        qp_result = QpPartitioner(coefficients, 2).solve(
            time_limit=profile.qp_time_limit
        )
        table.add_row(
            instance=instance.name,
            **{"|T|": instance.num_transactions,
               "heavy txns": len(heavy_result.metadata["heavy_transactions"]),
               "heavy-first cost": round(heavy_result.objective),
               "SA cost": round(sa_result.objective),
               "QP cost": round(qp_result.objective),
               "heavy-first s": round(heavy_result.wall_time, 2),
               "QP s": round(qp_result.wall_time, 2)},
        )
    return table


def ablation_latency(profile: BenchProfile | None = None) -> BenchTable:
    """Appendix A: adding the latency term to the objective."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Ablation — Appendix A latency extension",
        columns=["instance", "p_l", "objective (4)", "latency estimate",
                 "remote-writing queries"],
        notes=["higher p_l pushes replicas of updated attributes home"],
    )
    instance = named_instance("rndAt8x15u50", seed=profile.seed)
    for latency_penalty in (0.0, 50.0, 500.0):
        parameters = replace(PAPER_PARAMETERS, latency_penalty=latency_penalty)
        coefficients = build_coefficients(instance, parameters)
        partitioner = QpPartitioner(
            coefficients, 2, latency=latency_penalty > 0
        )
        result = partitioner.solve(time_limit=profile.qp_time_limit)
        evaluator = SolutionEvaluator(coefficients)
        latency = evaluator.latency(result.x, result.y)
        remote_writers = (
            round(latency / latency_penalty) if latency_penalty else 0
        )
        table.add_row(
            instance=instance.name,
            p_l=latency_penalty,
            **{"objective (4)": round(result.objective),
               "latency estimate": round(latency),
               "remote-writing queries": remote_writers},
        )
    return table


def ablation_baselines(profile: BenchProfile | None = None) -> BenchTable:
    """QP/SA vs classic vertical-partitioning baselines."""
    profile = profile or get_profile()
    table = BenchTable(
        title="Ablation — QP/SA vs classic baselines (objective (4), "
        "lower is better)",
        columns=["instance", "|S|", "single-site", "round-robin", "affinity",
                 "binpack", "hill-climb", "SA", "QP"],
    )
    for name, num_sites in (("tpcc", 3), ("rndAt8x15", 2), ("rndBt16x15", 2)):
        instance = named_instance(name, seed=profile.seed)
        coefficients = build_coefficients(instance, PAPER_PARAMETERS)
        sa = SaPartitioner(
            coefficients, num_sites,
            options=profile.sa_for(instance.num_attributes),
        ).solve()
        qp = QpPartitioner(coefficients, num_sites).solve(
            time_limit=profile.qp_time_limit
        )
        table.add_row(
            instance=instance.name,
            **{"|S|": num_sites,
               "single-site": round(single_site_partitioning(coefficients).objective),
               "round-robin": round(
                   round_robin_partitioning(coefficients, num_sites).objective
               ),
               "affinity": round(
                   affinity_partitioning(coefficients, num_sites).objective
               ),
               "binpack": round(
                   greedy_binpack_partitioning(coefficients, num_sites).objective
               ),
               "hill-climb": round(
                   hill_climb_partitioning(
                       coefficients, num_sites, seed=profile.seed
                   ).objective
               ),
               "SA": round(sa.objective),
               "QP": round(qp.objective)},
        )
    return table
