"""Mixed-integer programming substrate.

The paper solved its linearised model (7) with GLPK; we use HiGHS
through ``scipy.optimize.milp``:

* a PuLP-like modelling layer (:mod:`repro.solver.expr`,
  :mod:`repro.solver.model`),
* the HiGHS backend behind :meth:`MipModel.solve`
  (:mod:`repro.solver.scipy_backend`).
"""

from repro.solver.expr import LinExpr, Variable, Constraint, Sense
from repro.solver.model import MipModel, ObjectiveSense, StandardArrays
from repro.solver.solution import MipSolution, SolutionStatus
from repro.solver.scipy_backend import solve_mip_scipy

__all__ = [
    "LinExpr",
    "Variable",
    "Constraint",
    "Sense",
    "MipModel",
    "ObjectiveSense",
    "StandardArrays",
    "MipSolution",
    "SolutionStatus",
    "solve_mip_scipy",
]
