"""The MIP backend: HiGHS branch and cut through ``scipy.optimize.milp``.

The only solver behind :meth:`~repro.solver.model.MipModel.solve`; its
answers are checked against brute-force enumeration in the tests.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.solver.model import StandardArrays
from repro.solver.solution import MipSolution, SolutionStatus


def solve_mip_scipy(
    arrays: StandardArrays,
    time_limit: float | None = None,
    gap: float = 1e-3,
) -> MipSolution:
    """Solve the MIP with ``scipy.optimize.milp`` (HiGHS branch & cut)."""
    constraints = (
        optimize.LinearConstraint(
            arrays.matrix, arrays.row_lower, arrays.row_upper
        )
        if arrays.num_constraints
        else ()
    )
    options: dict[str, object] = {"mip_rel_gap": gap}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        arrays.objective,
        constraints=constraints,
        integrality=arrays.integrality.astype(int),
        bounds=optimize.Bounds(arrays.lower, arrays.upper),
        options=options,
    )
    nodes = int(getattr(result, "mip_node_count", 0) or 0)
    bound = getattr(result, "mip_dual_bound", None)
    if bound is not None:
        bound = float(bound)

    if result.status == 0:
        status = SolutionStatus.OPTIMAL
    elif result.status == 1 and result.x is not None:
        status = SolutionStatus.FEASIBLE
    elif result.status == 2:
        status = SolutionStatus.INFEASIBLE
    elif result.status == 3:
        status = SolutionStatus.UNBOUNDED
    else:
        status = SolutionStatus.NO_SOLUTION
    found = status.has_solution
    return MipSolution(
        status=status,
        objective=float(result.fun) if found else None,
        values=np.asarray(result.x) if found else None,
        bound=bound,
        nodes=nodes,
        message=str(result.message),
    )
