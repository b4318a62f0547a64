"""The result of a MIP solve."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class SolutionStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A feasible (integer) solution was found but optimality was not
    #: proven within the limits — the paper's parenthesised costs.
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: A limit was hit before any feasible solution was found — the
    #: paper's "t/o" entries.
    NO_SOLUTION = "no_solution"

    @property
    def has_solution(self) -> bool:
        return self in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)


@dataclass
class MipSolution:
    """Result of solving a (mixed-integer) linear program."""

    status: SolutionStatus
    objective: float | None
    values: np.ndarray | None
    #: Best proven lower bound on the objective (minimisation).
    bound: float | None = None
    wall_time: float = 0.0
    nodes: int = 0
    message: str = ""

    @property
    def gap(self) -> float | None:
        """Relative MIP gap ``|obj - bound| / max(1, |obj|)``."""
        if self.objective is None or self.bound is None:
            return None
        return abs(self.objective - self.bound) / max(1.0, abs(self.objective))

    def __repr__(self) -> str:
        objective = "None" if self.objective is None else f"{self.objective:.6g}"
        return (
            f"MipSolution(status={self.status.value}, objective={objective}, "
            f"nodes={self.nodes}, time={self.wall_time:.2f}s)"
        )
