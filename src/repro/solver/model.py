"""The MIP model as arrays, and its conversion to solver form."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.exceptions import SolverError
from repro.solver.solution import MipSolution


@dataclass(frozen=True)
class StandardArrays:
    """A minimisation model ``lower <= v <= upper``,
    ``row_lower <= matrix @ v <= row_upper`` in solver form.

    ``matrix`` is a canonical CSR matrix (sorted indices, no duplicate
    entries); infinite bounds are ``±np.inf``.
    """

    objective: np.ndarray  # (n,)
    matrix: sparse.csr_matrix  # (m, n)
    row_lower: np.ndarray  # (m,)
    row_upper: np.ndarray  # (m,)
    lower: np.ndarray  # (n,)
    upper: np.ndarray  # (n,)
    integrality: np.ndarray  # (n,) bool

    @property
    def num_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.row_lower.shape[0]


@dataclass(frozen=True)
class RowBlock:
    """One constraint family: ``lower <= A @ v <= upper`` with ``A`` in
    COO form and ``rows`` numbered from 0 within the block."""

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.lower.shape[0]


_NO_ROWS = RowBlock(
    np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
    np.zeros(0), np.zeros(0), np.zeros(0),
)


@dataclass(frozen=True)
class MipModel:
    """A mixed-integer linear program (minimisation) as arrays.

    Variables are columns ``0..n-1`` with bounds ``lower``/``upper`` and
    an ``integrality`` mask; constraints are :class:`RowBlock` families,
    stacked in order into the rows of :meth:`to_standard_arrays`.

    Minimise ``-x - 2y`` subject to ``x + 3y <= 7``, ``0 <= x <= 10``
    and binary ``y``:

    >>> cap = RowBlock(
    ...     rows=np.array([0, 0]), cols=np.array([0, 1]),
    ...     data=np.array([1.0, 3.0]),
    ...     lower=np.array([-np.inf]), upper=np.array([7.0]),
    ... )
    >>> model = MipModel(
    ...     "demo", objective=np.array([-1.0, -2.0]),
    ...     lower=np.zeros(2), upper=np.array([10.0, 1.0]),
    ...     integrality=np.array([False, True]), blocks=(cap,),
    ... )
    >>> solution = model.solve()
    >>> round(solution.objective, 6)
    -7.0
    """

    name: str
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    blocks: tuple[RowBlock, ...] = ()

    def __post_init__(self) -> None:
        n = self.objective.shape[0]
        for label in ("lower", "upper", "integrality"):
            if getattr(self, label).shape != (n,):
                raise SolverError(
                    f"model {self.name!r}: {label} has shape "
                    f"{getattr(self, label).shape}, expected ({n},)"
                )
        if (self.upper < self.lower).any():
            column = int(np.flatnonzero(self.upper < self.lower)[0])
            raise SolverError(
                f"model {self.name!r}: column {column} has upper bound "
                f"{self.upper[column]} < lower bound {self.lower[column]}"
            )

    @property
    def num_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return sum(block.num_rows for block in self.blocks)

    @property
    def num_integer_variables(self) -> int:
        return int(np.count_nonzero(self.integrality))

    # ------------------------------------------------------------------
    # Array form
    # ------------------------------------------------------------------
    def to_standard_arrays(self) -> StandardArrays:
        """Stack the row blocks into one CSR matrix with row bounds."""
        offsets = np.cumsum([0] + [block.num_rows for block in self.blocks])
        blocks = self.blocks or (_NO_ROWS,)
        matrix = sparse.csr_matrix(
            (
                np.concatenate([block.data for block in blocks]),
                (
                    np.concatenate([
                        block.rows + offset
                        for block, offset in zip(blocks, offsets)
                    ]),
                    np.concatenate([block.cols for block in blocks]),
                ),
            ),
            shape=(int(offsets[-1]), self.num_variables),
        )
        return StandardArrays(
            objective=self.objective,
            matrix=matrix,
            row_lower=np.concatenate([block.lower for block in blocks]),
            row_upper=np.concatenate([block.upper for block in blocks]),
            lower=self.lower,
            upper=self.upper,
            integrality=self.integrality,
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
        return solution

    def __repr__(self) -> str:
        return (
            f"MipModel({self.name!r}, vars={self.num_variables} "
            f"(int={self.num_integer_variables}), cons={self.num_constraints})"
        )
