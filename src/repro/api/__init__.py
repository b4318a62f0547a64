"""Unified advisor API: one ``advise()`` entry point for every solver.

The paper frames the exact QP/MIP solver and simulated annealing as
interchangeable solvers of one partitioning problem; this package makes
that interchangeability an API:

* :class:`SolveRequest` — a frozen, JSON-round-trippable description of
  one partitioning request (instance, sites, cost parameters,
  replication mode, strategy + options, seed, time budget),
* :class:`SolverRegistry` / :func:`register_solver` — strategies by name
  (``"qp"``, ``"sa"``, ``"sa-portfolio"``, ``"greedy"``, ``"affinity"``,
  ``"hillclimb"``, ``"round-robin"``, ``"single-site"``, ``"auto"``,
  plus user-registered ones),
* :func:`advise` / :class:`Advisor` — serve one request, or batches that
  share coefficient products across requests.

>>> from repro.api import SolveRequest, advise
>>> from repro.instances import tpcc_instance
>>> report = advise(SolveRequest(tpcc_instance(), num_sites=2,
...                              strategy="sa", seed=0))  # doctest: +SKIP
>>> report.objective, report.strategy  # doctest: +SKIP
"""

from repro.api.advisor import Advisor, advise, advise_many, derive_request_seeds
from repro.api.registry import (
    Partitioner,
    SolverRegistry,
    StrategyContext,
    default_registry,
    register_solver,
)
from repro.api.report import SolveReport
from repro.api.request import SolveRequest
from repro.api.strategies import AUTO_QP_VARIABLE_CUTOFF

__all__ = [
    "Advisor",
    "advise",
    "advise_many",
    "derive_request_seeds",
    "Partitioner",
    "SolverRegistry",
    "StrategyContext",
    "default_registry",
    "register_solver",
    "SolveReport",
    "SolveRequest",
    "AUTO_QP_VARIABLE_CUTOFF",
]
