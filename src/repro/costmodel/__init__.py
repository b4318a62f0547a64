"""The paper's cost model (Section 2).

Given a problem instance and cost parameters (network penalty ``p``,
load-balance weight ``lambda``), this package derives:

* the static indicator arrays ``alpha, beta, gamma, delta, phi``
  (:mod:`repro.costmodel.constants`),
* the per-attribute weights ``W[a,q] = w_a * f_q * n_{a,q}``, the
  objective coefficients ``c1, c2, c3, c4`` and the read-sharing
  components of the disjoint variant
  (:mod:`repro.costmodel.coefficients`),
* evaluation of any candidate solution ``(x, y)``: objective (4), the
  blended objective (6), the cost breakdown ``A = AR + AW`` and ``B``,
  per-site loads and the Appendix-A latency estimate
  (:mod:`repro.costmodel.evaluator`),
* incremental evaluation for local search: mutable per-solution state
  (``c1 @ x`` / ``c3 @ x`` products, per-site loads, transfer totals)
  with delta updates per moved transaction / toggled replica, used by
  the simulated annealer's hot loop
  (:mod:`repro.costmodel.incremental`).

The dense evaluator remains the single source of truth; the incremental
evaluator is property-tested against it across all write-accounting
modes, replication on/off and ``lambda < 1``.
"""

from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.constants import IndicatorArrays, build_indicators
from repro.costmodel.coefficients import (
    CostCoefficients,
    build_coefficients,
    read_sharing_components,
)
from repro.costmodel.evaluator import (
    CostBreakdown,
    SolutionEvaluator,
    check_solution_feasible,
    feasibility_violations,
)
from repro.costmodel.incremental import IncrementalEvaluator

__all__ = [
    "CostParameters",
    "WriteAccounting",
    "IndicatorArrays",
    "build_indicators",
    "CostCoefficients",
    "build_coefficients",
    "read_sharing_components",
    "CostBreakdown",
    "IncrementalEvaluator",
    "SolutionEvaluator",
    "check_solution_feasible",
    "feasibility_violations",
]
