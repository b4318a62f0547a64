"""Problem-size reductions (Section 4 of the paper).

* :mod:`repro.reduction.cuts` — "reasonable cuts": attributes of one
  table accessed by exactly the same set of queries form one co-access
  group (the QP solves over the exact classes of
  :mod:`repro.qp.reduce`, which refine these groups under ``lambda < 1``).
* :mod:`repro.reduction.heavy` — the 20/80 rule: solve the heaviest
  transactions first and extend the solution to the full workload.
* :mod:`repro.reduction.compress` — workload compression: cluster
  access-identical transactions into weighted super-transactions
  (lossless or tolerance-bounded lossy) and lift solutions back.
"""

from repro.reduction.cuts import attribute_groups
from repro.reduction.heavy import IterativeRefinement, solve_iterative
from repro.reduction.compress import (
    compress_instance,
    compress_result,
    lift_result,
    query_access_signature,
    query_signature,
    transaction_access_signature,
    transaction_signature,
)

__all__ = [
    "attribute_groups",
    "IterativeRefinement",
    "solve_iterative",
    "compress_instance",
    "compress_result",
    "lift_result",
    "query_access_signature",
    "query_signature",
    "transaction_access_signature",
    "transaction_signature",
]
