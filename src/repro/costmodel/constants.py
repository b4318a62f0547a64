"""The five static indicator arrays of Section 2.1.

For an instance with attribute set ``A``, query set ``Q`` and
transaction set ``T`` the paper defines:

* ``alpha[a,q]`` — attribute ``a`` itself is accessed by query ``q``,
* ``beta[a,q]``  — ``a`` belongs to a table that ``q`` accesses,
* ``gamma[q,t]`` — query ``q`` is used in transaction ``t``,
* ``delta[q]``   — ``q`` is a write query,
* ``phi[a,t]``   — some *read* query of ``t`` accesses ``a``.

The five indicators are dense numpy ``bool`` arrays, an eighth of the
memory of float64; in products with the float64 weights numpy reads
them as exact 0.0/1.0.  ``bool`` arithmetic among themselves is logical
(``+`` is *or*, ``@`` is *or* of *and*), so a count needs an explicit
cast.  All are built once per instance.  The row counts ``n[a,q]`` are
not kept: ``W`` carries them (:func:`row_counts` rebuilds them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.instance import ProblemInstance


@dataclass(frozen=True)
class IndicatorArrays:
    """The five dense indicator arrays."""

    alpha: np.ndarray  # (|A|, |Q|)
    beta: np.ndarray  # (|A|, |Q|)
    gamma: np.ndarray  # (|Q|, |T|)
    delta: np.ndarray  # (|Q|,)
    phi: np.ndarray  # (|A|, |T|)

    @property
    def num_attributes(self) -> int:
        return self.alpha.shape[0]

    @property
    def num_queries(self) -> int:
        return self.alpha.shape[1]

    @property
    def num_transactions(self) -> int:
        return self.gamma.shape[1]


def build_indicators(instance: ProblemInstance) -> IndicatorArrays:
    """Construct the indicator arrays for ``instance``.

    Invariants established here (and property-tested):

    * ``alpha <= beta`` element-wise (accessing an attribute implies
      accessing its table),
    * every row of ``gamma`` (a query) flags exactly one transaction,
    * ``phi[a,t] = max over read queries q of t of alpha[a,q]``.
    """
    num_attributes = instance.num_attributes
    num_queries = instance.num_queries
    num_transactions = instance.num_transactions

    alpha = np.zeros((num_attributes, num_queries), dtype=bool)
    beta = np.zeros((num_attributes, num_queries), dtype=bool)
    gamma = np.zeros((num_queries, num_transactions), dtype=bool)
    delta = np.zeros(num_queries, dtype=bool)
    phi = np.zeros((num_attributes, num_transactions), dtype=bool)

    attribute_index = instance.attribute_index
    table_attributes = instance.table_attributes
    owner = instance.query_transaction

    for q_index, query in enumerate(instance.queries):
        t_index = owner[q_index]
        gamma[q_index, t_index] = True
        if query.is_write:
            delta[q_index] = True
        for qualified in query.attributes:
            a_index = attribute_index[qualified]
            alpha[a_index, q_index] = True
            if not query.is_write:
                phi[a_index, t_index] = True
        for table in query.tables:
            for a_index in table_attributes[table]:
                beta[a_index, q_index] = True

    return IndicatorArrays(alpha=alpha, beta=beta, gamma=gamma, delta=delta, phi=phi)


def row_counts(instance: ProblemInstance) -> np.ndarray:
    """``n[a,q]``: the rows query ``q`` touches in ``a``'s table, zero
    where ``beta[a,q] == 0`` (|A|, |Q|) float64."""
    rows = np.zeros((instance.num_attributes, instance.num_queries))
    table_attributes = instance.table_attributes
    for q_index, query in enumerate(instance.queries):
        for table in query.tables:
            n_rows = query.rows_for(table)
            for a_index in table_attributes[table]:
                rows[a_index, q_index] = n_rows
    return rows
