"""The MIP model container and its conversion to solver arrays."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError
from repro.solver.expr import Constraint, LinExpr, Sense, Variable
from repro.solver.solution import MipSolution


class ObjectiveSense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class StandardArrays:
    """A model in array form (minimisation).

    ``A`` is a sparse CSR matrix over all constraints; ``senses`` holds a
    :class:`Sense` per row. Bounds are per-variable ``(lower, upper)``
    with ``upper = None`` meaning unbounded above.
    """

    objective: np.ndarray  # (n,)
    objective_constant: float
    matrix: sparse.csr_matrix  # (m, n)
    senses: tuple[Sense, ...]
    rhs: np.ndarray  # (m,)
    lower: np.ndarray  # (n,)
    upper: np.ndarray  # (n,) with np.inf for unbounded
    integrality: np.ndarray  # (n,) bool

    @property
    def num_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.rhs.shape[0]


class MipModel:
    """A mixed-integer linear program under construction.

    >>> model = MipModel("demo")
    >>> x = model.add_variable("x", upper=10)
    >>> y = model.binary_variable("y")
    >>> _ = model.add_constraint(x + 3 * y <= 7, name="cap")
    >>> model.minimize(-x - 2 * y)
    >>> solution = model.solve()
    >>> round(solution.objective, 6)
    -7.0
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._sense = ObjectiveSense.MINIMIZE
        self._names: set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float | None = None,
        integer: bool = False,
    ) -> Variable:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        self._names.add(name)
        variable = Variable(len(self.variables), name, lower, upper, integer)
        self.variables.append(variable)
        return variable

    def binary_variable(self, name: str) -> Variable:
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str | None = None) -> Constraint:
        if not isinstance(constraint, Constraint):
            raise SolverError(
                f"expected a Constraint (did the comparison fold to bool?), "
                f"got {type(constraint).__name__}"
            )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    def clone_structure(self, name: str | None = None) -> "MipModel":
        """A new model sharing this model's variables and constraints.

        The clone starts with an empty objective; variables and
        constraints are shared by reference (they are not mutated by
        solving), while the containers are copied so later additions to
        either model stay local to it.  Used to re-price a model whose
        constraint skeleton is unchanged — e.g. across the points of a
        parameter sweep — without rebuilding thousands of expression
        objects.
        """
        clone = MipModel(name or self.name)
        clone.variables = list(self.variables)
        clone.constraints = list(self.constraints)
        clone._names = set(self._names)
        return clone

    def minimize(self, expression: LinExpr | Variable) -> None:
        self._objective = expression.to_expr() if isinstance(expression, Variable) else expression
        self._sense = ObjectiveSense.MINIMIZE

    def maximize(self, expression: LinExpr | Variable) -> None:
        self._objective = expression.to_expr() if isinstance(expression, Variable) else expression
        self._sense = ObjectiveSense.MAXIMIZE

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def objective_sense(self) -> ObjectiveSense:
        return self._sense

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for variable in self.variables if variable.is_integer)

    # ------------------------------------------------------------------
    # Array form
    # ------------------------------------------------------------------
    def to_standard_arrays(self) -> StandardArrays:
        """Convert to minimisation array form (maximisation is negated)."""
        n = len(self.variables)
        objective = np.zeros(n)
        for index, coefficient in self._objective.terms.items():
            objective[index] = coefficient
        constant = self._objective.constant
        if self._sense is ObjectiveSense.MAXIMIZE:
            objective = -objective
            constant = -constant

        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        senses: list[Sense] = []
        rhs: list[float] = []
        for row, constraint in enumerate(self.constraints):
            for index, coefficient in constraint.terms.items():
                if coefficient != 0.0:
                    rows.append(row)
                    cols.append(index)
                    data.append(coefficient)
            senses.append(constraint.sense)
            rhs.append(constraint.rhs)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self.constraints), n)
        )

        lower = np.array([variable.lower for variable in self.variables])
        upper = np.array(
            [np.inf if variable.upper is None else variable.upper for variable in self.variables]
        )
        integrality = np.array([variable.is_integer for variable in self.variables])
        return StandardArrays(
            objective=objective,
            objective_constant=constant,
            matrix=matrix,
            senses=tuple(senses),
            rhs=np.asarray(rhs, dtype=float),
            lower=lower,
            upper=upper,
            integrality=integrality,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, time_limit: float | None = None, gap: float = 1e-3) -> MipSolution:
        """Solve the model with HiGHS.

        Parameters
        ----------
        time_limit:
            Wall-clock budget in seconds (None = unlimited).
        gap:
            Relative MIP gap at which the search stops (the paper used
            0.1%; default here 0.1% as well).
        """
        from repro.solver.scipy_backend import solve_mip_scipy

        arrays = self.to_standard_arrays()
        started = time.perf_counter()
        solution = solve_mip_scipy(arrays, time_limit=time_limit, gap=gap)
        solution.wall_time = time.perf_counter() - started
        if solution.objective is not None and self._sense is ObjectiveSense.MAXIMIZE:
            solution.objective = -solution.objective
            if solution.bound is not None:
                solution.bound = -solution.bound
        return solution

    def __repr__(self) -> str:
        return (
            f"MipModel({self.name!r}, vars={self.num_variables} "
            f"(int={self.num_integer_variables}), cons={self.num_constraints})"
        )
