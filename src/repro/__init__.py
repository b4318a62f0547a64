"""repro — vertical partitioning of relational OLTP databases.

A faithful, from-scratch reproduction of

    Rasmus Resen Amossen,
    "Vertical partitioning of relational OLTP databases using integer
    programming", ICDE 2010 (arXiv:0911.1691).

Public API
----------
Model a schema and workload (:class:`SchemaBuilder`, :class:`Query`,
:class:`Transaction`, :class:`Workload`, :class:`ProblemInstance`),
choose cost parameters (:class:`CostParameters`), then describe the
solve as a :class:`SolveRequest` and serve it with :func:`advise` — the
``"auto"`` strategy picks the optimal QP solver or the scalable
simulated-annealing heuristic from the model-size estimate, or name any
registered strategy explicitly (``"qp"``, ``"sa"``, ``"sa-portfolio"``,
the baselines, or your own via :func:`register_solver`).  Batches go
through :class:`Advisor` (``advise_many``), which shares a coefficient
cache across requests.  Reports carry the underlying
:class:`PartitioningResult` with full cost breakdowns and Table-4-style
layout rendering (:func:`render_layout`).  The pre-API one-call wrappers
(:func:`solve_qp`, :func:`solve_sa`) remain as thin shims over
:func:`advise`.

>>> from repro import SchemaBuilder, Query, Transaction, Workload
>>> from repro import ProblemInstance, SolveRequest, advise
>>> schema = (SchemaBuilder("shop")
...           .table("Users", id=4, name=16, bio=200)
...           .build())
>>> workload = Workload([Transaction("Login", (
...     Query.read("getUser", ["Users.id", "Users.name"]),))])
>>> instance = ProblemInstance(schema, workload)
>>> report = advise(SolveRequest(instance, num_sites=2, seed=0))
>>> report.objective <= 220.0
True
"""

from repro.model import (
    Attribute,
    Table,
    Schema,
    SchemaBuilder,
    Query,
    QueryKind,
    Transaction,
    Workload,
    split_update,
    ProblemInstance,
    dump_instance,
    load_instance,
    describe_instance,
)
from repro.costmodel import (
    CostParameters,
    WriteAccounting,
    build_coefficients,
    SolutionEvaluator,
    check_solution_feasible,
)
from repro.partition import (
    PartitioningResult,
    single_site_partitioning,
    build_layout,
    render_layout,
)
from repro.qp import QpPartitioner, solve_qp
from repro.sa import SaOptions, SaPartitioner, solve_sa
from repro.instances import (
    tpcc_instance,
    tatp_instance,
    smallbank_instance,
    voter_instance,
    InstanceParameters,
    generate_instance,
    named_instance,
)
from repro.stats import QueryEvent, TraceCollector, reestimate_instance
from repro.analysis import penalty_sweep, sites_sweep, lambda_sweep
from repro.api import (
    Advisor,
    SolveReport,
    SolveRequest,
    SolverRegistry,
    advise,
    advise_many,
    default_registry,
    register_solver,
)

__version__ = "1.1.0"

__all__ = [
    "Attribute",
    "Table",
    "Schema",
    "SchemaBuilder",
    "Query",
    "QueryKind",
    "Transaction",
    "Workload",
    "split_update",
    "ProblemInstance",
    "dump_instance",
    "load_instance",
    "describe_instance",
    "CostParameters",
    "WriteAccounting",
    "build_coefficients",
    "SolutionEvaluator",
    "check_solution_feasible",
    "PartitioningResult",
    "single_site_partitioning",
    "build_layout",
    "render_layout",
    "QpPartitioner",
    "solve_qp",
    "SaOptions",
    "SaPartitioner",
    "solve_sa",
    "tpcc_instance",
    "tatp_instance",
    "smallbank_instance",
    "voter_instance",
    "InstanceParameters",
    "generate_instance",
    "named_instance",
    "QueryEvent",
    "TraceCollector",
    "reestimate_instance",
    "penalty_sweep",
    "sites_sweep",
    "lambda_sweep",
    "Advisor",
    "SolveReport",
    "SolveRequest",
    "SolverRegistry",
    "advise",
    "advise_many",
    "default_registry",
    "register_solver",
    "__version__",
]
