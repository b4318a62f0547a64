"""The QP solver: the paper's linearised quadratic program (Section 2).

:func:`build_linearized_model` constructs model (7) — with optional
disjointness (Table 5), local placement (Table 6, via ``p = 0`` in the
cost parameters) and the Appendix-A latency extension — and
:class:`QpPartitioner` solves it with HiGHS.
"""

from repro.qp.linearize import LinearizedModel, build_linearized_model
from repro.qp.solver import QpPartitioner, solve_qp

__all__ = [
    "LinearizedModel",
    "build_linearized_model",
    "QpPartitioner",
    "solve_qp",
]
