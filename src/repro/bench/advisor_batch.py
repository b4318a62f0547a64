"""Bench target: one ``advise_many`` batch through a shared Advisor.

A 10-point request batch over one instance — a penalty sweep alternating
replicated/disjoint QP requests plus a pair of seeded SA requests — the
shape a long-lived advisor service sees.  The point is cache behaviour,
not wall-clock: on the single-core CI container the assertable outcome
is the hit ratio of the shared ``CoefficientCache`` (and batch
determinism), which the bench-smoke test pins.
"""

from __future__ import annotations

from repro.api import Advisor, SolveRequest
from repro.api.report import SolveReport
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.config import CostParameters
from repro.instances.library import named_instance

#: Every point after the first re-uses the instance's indicator and
#: weight products from the shared coefficient cache.
BATCH_PENALTIES = (1.0, 2.0, 4.0, 8.0)
BATCH_INSTANCE = "rndBt4x15"
BATCH_SEED = 20100116


def build_batch(profile: BenchProfile | None = None) -> list[SolveRequest]:
    """The 10 requests of the advisor-batch bench."""
    profile = profile or get_profile()
    instance = named_instance(BATCH_INSTANCE, seed=profile.seed)
    requests: list[SolveRequest] = []
    for penalty in BATCH_PENALTIES:
        parameters = CostParameters(network_penalty=penalty)
        for allow_replication in (True, False):
            requests.append(
                SolveRequest(
                    instance=instance,
                    num_sites=2,
                    parameters=parameters,
                    allow_replication=allow_replication,
                    strategy="qp",
                    options={"gap": profile.qp_gap},
                    time_limit=profile.qp_time_limit,
                )
            )
    sa_options = {"inner_loops": 5, "max_outer_loops": 10, "patience": 4,
                  "restarts": 2}
    for penalty in BATCH_PENALTIES[:2]:
        requests.append(
            SolveRequest(
                instance=instance,
                num_sites=2,
                parameters=CostParameters(network_penalty=penalty),
                strategy="sa",
                options=sa_options,
            )
        )
    return requests


def run_batch(
    profile: BenchProfile | None = None, jobs: int | None = None
) -> tuple[list[SolveReport], Advisor]:
    """Serve the batch through one Advisor; returns reports + advisor."""
    profile = profile or get_profile()
    advisor = Advisor()
    reports = advisor.advise_many(
        build_batch(profile), master_seed=BATCH_SEED, jobs=jobs
    )
    return reports, advisor


def advisor_batch(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table: one row per request plus cache totals."""
    profile = profile or get_profile()
    reports, advisor = run_batch(profile)
    table = BenchTable(
        title="Advisor batch — 10 requests through one shared Advisor "
        f"({BATCH_INSTANCE}, |S|=2)",
        columns=["#", "strategy", "p", "repl", "objective", "time s",
                 "coeff hit"],
        notes=[],
    )
    for index, report in enumerate(reports):
        request = report.request
        table.add_row(
            **{"#": index,
               "strategy": report.strategy,
               "p": request.parameters.network_penalty,
               "repl": "yes" if request.allow_replication else "no",
               "objective": round(report.objective),
               "time s": round(report.wall_time, 2),
               "coeff hit": report.cache_stats["coefficient_hits"]},
        )
    stats = advisor.cache_stats()
    total_coeff = stats["coefficient_hits"] + stats["coefficient_misses"]
    table.notes.append(
        f"coefficient cache: {stats['coefficient_hits']}/{total_coeff} hits"
    )
    table.notes.append(
        "deterministic per master seed regardless of jobs (portfolio "
        "incumbents are completion-order independent)"
    )
    return table
