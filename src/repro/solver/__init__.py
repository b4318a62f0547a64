"""Mixed-integer programming substrate.

The paper solved its linearised model (7) with GLPK; we use HiGHS
through ``scipy.optimize.milp``:

* :class:`MipModel`, a model held as arrays: an objective, column
  bounds, an integrality mask and :class:`RowBlock` constraint
  families in COO form (:mod:`repro.solver.model`),
* the HiGHS backend behind :meth:`MipModel.solve`
  (:mod:`repro.solver.scipy_backend`).
"""

from repro.solver.model import MipModel, RowBlock, StandardArrays
from repro.solver.solution import MipSolution, SolutionStatus
from repro.solver.scipy_backend import solve_mip_scipy

__all__ = [
    "MipModel",
    "RowBlock",
    "StandardArrays",
    "MipSolution",
    "SolutionStatus",
    "solve_mip_scipy",
]
