"""The SA solver: the paper's simulated-annealing heuristic (Section 3).

Algorithm 1 alternately fixes the transaction vector ``x`` or the
attribute vector ``y`` and re-optimises the free one (``findSolution``),
perturbing the fixed vector through a neighbourhood move (relocating
~10% of the transactions / extending replication for ~10% of the
attributes) and accepting worse solutions with probability
``exp(-delta / tau)`` under a geometric cooling schedule. The initial
temperature follows Section 5.1: accept a 5%-worse solution with 50%
probability in the first iterations.

``SaOptions(restarts=N)`` runs a best-of-N multi-start portfolio
(:mod:`repro.sa.portfolio`) over a pluggable execution backend
(:mod:`repro.sa.backends`: serial, or forked worker processes fed
over the fault-tolerant transport of :mod:`repro.sa.transport`),
deterministic per master seed whatever runs where — and, for the
process backend, whatever faults the transport suffers.
Library callers normally reach all of this through
:func:`repro.api.advise` with strategy ``"sa"`` / ``"sa-portfolio"``;
:func:`solve_sa` remains as a thin shim over that entry point.
"""

from repro.sa.options import SaOptions
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.portfolio import PortfolioResult, RestartOutcome, derive_restart_seeds, run_portfolio
from repro.sa.backends import (
    ExecutionBackend,
    SerialBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.sa.solver import SaPartitioner, solve_sa

__all__ = [
    "SaOptions",
    "SimulatedAnnealer",
    "SaPartitioner",
    "solve_sa",
    "PortfolioResult",
    "RestartOutcome",
    "derive_restart_seeds",
    "run_portfolio",
    "ExecutionBackend",
    "SerialBackend",
    "backend_names",
    "get_backend",
    "register_backend",
]
