"""Objective coefficients derived from the indicators (Section 2).

``W[a,q] = w_a * f_q * n_{a,q}`` estimates the byte cost of attribute
``a`` in query ``q``. From it the paper derives four static coefficient
arrays:

* ``c1[a,t] = sum_q W[a,q] * gamma[q,t] * (beta[a,q] * (1 - delta[q])
  - p * alpha[a,q] * delta[q])`` — the bilinear ``x * y`` coefficient,
* ``c2[a]   = sum_q W[a,q] * delta[q] * (beta[a,q] + p * alpha[a,q])``
  — the per-replica coefficient,
* ``c3[a,t] = sum_q W[a,q] * gamma[q,t] * beta[a,q] * (1 - delta[q])``
  — per-site read load,
* ``c4[a]   = sum_q W[a,q] * beta[a,q] * delta[q]`` — per-replica write
  load.

``c1`` can be negative (placing a replica of an updated attribute on the
updating transaction's site avoids one network transfer), which matters
to the linearisation and the SA greedy step.

The ablation write-accounting modes adjust the ``beta * delta`` terms:

* ``ALL_ATTRIBUTES`` (paper default): keep as above.
* ``NO_ATTRIBUTES``: drop the local write cost entirely (``c2``'s beta
  term and ``c4`` become zero).
* ``RELEVANT_ATTRIBUTES``: not expressible as static coefficients; the
  evaluator computes it from the raw arrays (quadratic in ``y``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.constants import IndicatorArrays, build_indicators, row_counts
from repro.model.compressed import CompressedInstance
from repro.model.instance import ProblemInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partition.current_layout import CurrentLayout


@dataclass(frozen=True)
class MigrationBlock:
    """Migration coefficients against an incumbent layout.

    ``c5[a, s] = migration_cost * w_a * (1 - y0[a, s])`` charges every
    replica the candidate layout creates that the incumbent does not
    already hold (``migration_cost`` bytes-to-move weight per attribute
    byte; replicas the incumbent already has are free, and dropping a
    replica is free).  The term is linear in ``y``, so it rides through
    the QP linearisation and the incremental evaluator's ``y``-delta
    machinery unchanged.
    """

    layout: "CurrentLayout"
    migration_cost: float
    y0: np.ndarray  # (|A|, |S|) incumbent replica indicator
    c5: np.ndarray  # (|A|, |S|) per-new-replica move cost


@dataclass(frozen=True)
class CostCoefficients:
    """All static data the solvers need, bundled with its provenance.

    ``migration`` is ``None`` for the paper's static problem; when set
    (see :func:`attach_migration`) the evaluators add the one-time
    ``sum_{a,s} c5[a,s] * y[a,s]`` move term to objective (4).
    """

    instance: ProblemInstance
    parameters: CostParameters
    indicators: IndicatorArrays
    c1: np.ndarray  # (|A|, |T|)
    c2: np.ndarray  # (|A|,)
    c3: np.ndarray  # (|A|, |T|)
    c4: np.ndarray  # (|A|,)
    migration: MigrationBlock | None = None

    @property
    def num_attributes(self) -> int:
        return self.c1.shape[0]

    @property
    def num_transactions(self) -> int:
        return self.c1.shape[1]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the held dense arrays, in bytes.

        Covers the indicator tensors (one byte per ``bool`` entry) and
        the four coefficient arrays (eight bytes per float64 entry) —
        the data every solver touches.  Workload compression shows up
        here directly: the dominant arrays are ``O(|A| * |Q|)`` and
        ``O(|A| * |T|)``, both of which shrink with the transaction
        count.  Derived ``cached_property`` products, ``W`` among them,
        are excluded (they are views of the same problem and may not
        have been built).
        """
        indicators = self.indicators
        arrays = (
            indicators.alpha,
            indicators.beta,
            indicators.gamma,
            indicators.delta,
            indicators.phi,
            self.c1,
            self.c2,
            self.c3,
            self.c4,
        )
        return int(sum(array.nbytes for array in arrays))

    @cached_property
    def weights(self) -> np.ndarray:
        """``W`` (|A|, |Q|), rebuilt from the instance on first read:
        only the cost breakdown and a few baselines need it."""
        return build_weights(self.instance)

    @cached_property
    def phi_bool(self) -> np.ndarray:
        """``phi`` as a boolean mask (used by co-location handling)."""
        return self.indicators.phi > 0

    @cached_property
    def read_weight(self) -> np.ndarray:
        """``W * beta * (1 - delta)`` per (a, q): read access bytes."""
        indicators = self.indicators
        return self.weights * indicators.beta * (1.0 - indicators.delta)

    @cached_property
    def write_weight(self) -> np.ndarray:
        """``W * beta * delta`` per (a, q): local write bytes (paper mode)."""
        indicators = self.indicators
        return self.weights * indicators.beta * indicators.delta

    @cached_property
    def transfer_weight(self) -> np.ndarray:
        """``W * alpha * delta`` per (a, q): network transfer bytes."""
        indicators = self.indicators
        return self.weights * indicators.alpha * indicators.delta

    # ------------------------------------------------------------------
    # Cached query / table-group structures (shared by the vectorised
    # dense evaluator and the incremental evaluator)
    # ------------------------------------------------------------------
    @cached_property
    def query_frequencies(self) -> np.ndarray:
        """``f_q`` per query, in canonical query order (|Q|,)."""
        return np.asarray([query.frequency for query in self.instance.queries])

    @cached_property
    def query_owner(self) -> np.ndarray:
        """Owning transaction index per query (|Q|,), read off ``gamma``."""
        return self.indicators.gamma.argmax(axis=1)

    @cached_property
    def write_queries(self) -> np.ndarray:
        """Canonical indices of the write queries (``delta > 0``)."""
        return np.flatnonzero(self.indicators.delta > 0)

    @cached_property
    def write_updates(self) -> np.ndarray:
        """``alpha`` restricted to write queries: (|A|, |Qw|) bool.

        Column ``j`` flags the attributes *updated* by the ``j``-th
        write query (order of :attr:`write_queries`).
        """
        return np.ascontiguousarray(self.indicators.alpha[:, self.write_queries])

    @cached_property
    def write_weights(self) -> np.ndarray:
        """``W`` restricted to write queries: (|A|, |Qw|) bytes."""
        return np.ascontiguousarray(self.weights[:, self.write_queries])

    @cached_property
    def attribute_group(self) -> np.ndarray:
        """Table-group index per attribute (|A|,): attributes of one
        table share a group. Groups are numbered in schema table order."""
        instance = self.instance
        group = np.empty(self.num_attributes, dtype=np.intp)
        for g_index, (_, members) in enumerate(instance.table_attributes.items()):
            for a_index in members:
                group[a_index] = g_index
        return group

    @cached_property
    def group_onehot(self) -> np.ndarray:
        """One-hot table-group matrix (|G|, |A|): ``G[g, a] = 1`` iff
        attribute ``a`` belongs to table group ``g``."""
        group = self.attribute_group
        num_groups = int(group.max()) + 1 if group.size else 0
        onehot = np.zeros((num_groups, self.num_attributes))
        onehot[group, np.arange(self.num_attributes)] = 1.0
        return onehot

    def single_site_cost(self) -> float:
        """Objective (4) of the trivial |S| = 1 solution.

        With one site all transfer terms cancel and the cost reduces to
        ``sum_{a,q} W[a,q] * beta[a,q]`` — the paper's ``|S| = 1``
        baseline column.
        """
        if self.parameters.write_accounting is WriteAccounting.NO_ATTRIBUTES:
            return float(self.read_weight.sum())
        return float(self.read_weight.sum() + self.write_weight.sum())


def read_sharing_components(coefficients: CostCoefficients) -> np.ndarray:
    """Group transactions that read a common attribute (union-find).

    In disjoint partitioning, two transactions reading the same
    attribute must be co-located (the single replica must be on both
    sites otherwise). The connected components of the "shares a read
    attribute" graph are therefore the atomic placement units, of the
    annealer's moves and of the disjoint QP alike.

    Returns an array mapping transaction index -> component id
    (component ids are consecutive from 0, in order of each
    component's first transaction).
    """
    num_transactions = coefficients.num_transactions
    parent = list(range(num_transactions))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: int, b: int) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    phi = coefficients.phi_bool
    for a in range(phi.shape[0]):
        readers = np.flatnonzero(phi[a])
        for other in readers[1:]:
            union(int(readers[0]), int(other))

    roots = [find(t) for t in range(num_transactions)]
    relabel: dict[int, int] = {}
    labels = np.empty(num_transactions, dtype=int)
    for t, root in enumerate(roots):
        if root not in relabel:
            relabel[root] = len(relabel)
        labels[t] = relabel[root]
    return labels


def build_weights(instance: ProblemInstance) -> np.ndarray:
    """``W[a,q] = w_a * f_q * n_{a,q}`` (zero where the table is untouched)."""
    widths = np.asarray(instance.attribute_widths())
    frequencies = np.asarray([query.frequency for query in instance.queries])
    return widths[:, None] * frequencies[None, :] * row_counts(instance)


def build_coefficients(
    instance: "ProblemInstance | CompressedInstance",
    parameters: CostParameters | None = None,
    indicators: IndicatorArrays | None = None,
    view: str = "compressed",
) -> CostCoefficients:
    """Derive :class:`CostCoefficients` for ``instance``.

    ``indicators`` may be passed to avoid recomputing them when several
    parameter settings are evaluated on one instance (Table 6 sweeps
    ``p``; the indicators do not depend on it).

    ``instance`` may also be a
    :class:`~repro.model.compressed.CompressedInstance`; ``view``
    selects which side the coefficients describe — ``"compressed"``
    (the default: the view solvers run on) or ``"original"`` (the view
    lifted solutions are re-evaluated on).  ``view`` is ignored for a
    plain :class:`~repro.model.instance.ProblemInstance`.
    """
    if isinstance(instance, CompressedInstance):
        if view not in ("compressed", "original"):
            raise ValueError(
                f"view must be 'compressed' or 'original', got {view!r}"
            )
        instance = getattr(instance, view)
    parameters = parameters or CostParameters()
    indicators = indicators or build_indicators(instance)
    return _assemble_coefficients(
        instance, parameters, indicators, build_weights(instance)
    )


def _assemble_coefficients(
    instance: ProblemInstance,
    parameters: CostParameters,
    indicators: IndicatorArrays,
    weights: np.ndarray,
) -> CostCoefficients:
    """The parameter-dependent tail of :func:`build_coefficients`."""
    penalty = parameters.network_penalty

    # One float64 copy of each stored bool indicator: mixed bool/float
    # operands would cast inside every product below.
    alpha, beta, gamma, delta = (
        array.astype(float)
        for array in (
            indicators.alpha, indicators.beta, indicators.gamma, indicators.delta
        )
    )

    read_term = weights * beta * (1.0 - delta)  # (|A|, |Q|)
    transfer_term = weights * alpha * delta
    write_term = weights * beta * delta

    if parameters.write_accounting is WriteAccounting.NO_ATTRIBUTES:
        local_write = np.zeros_like(write_term)
    else:
        # ALL_ATTRIBUTES (the paper's choice). RELEVANT_ATTRIBUTES also
        # uses these coefficients as an upper bound; its exact cost is
        # evaluated from the raw arrays by the evaluator.
        local_write = write_term

    c1 = (read_term - penalty * transfer_term) @ gamma  # (|A|, |T|)
    c2 = local_write.sum(axis=1) + penalty * transfer_term.sum(axis=1)  # (|A|,)
    c3 = read_term @ gamma  # (|A|, |T|)
    c4 = local_write.sum(axis=1)  # (|A|,)

    return CostCoefficients(
        instance=instance,
        parameters=parameters,
        indicators=indicators,
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
    )


def build_migration_block(
    instance: ProblemInstance,
    layout: "CurrentLayout",
    migration_cost: float,
    num_sites: int,
) -> MigrationBlock:
    """Derive the ``c5`` move-cost array against an incumbent layout."""
    y0 = layout.to_matrix(instance, num_sites)
    widths = np.asarray(instance.attribute_widths(), dtype=float)
    c5 = float(migration_cost) * widths[:, None] * (1.0 - y0)
    return MigrationBlock(
        layout=layout, migration_cost=float(migration_cost), y0=y0, c5=c5
    )


def attach_migration(
    coefficients: CostCoefficients,
    layout: "CurrentLayout",
    migration_cost: float,
    num_sites: int,
) -> CostCoefficients:
    """A copy of ``coefficients`` carrying a migration term.

    The c1–c4 arrays, indicators and instance are shared by identity;
    only the ``migration`` field differs.  With a
    compressed view, build the block against the *original* instance's
    coefficients when re-evaluating lifted solutions — attribute widths
    and the schema are identical across views, so the layout validates
    against both.
    """
    block = build_migration_block(
        coefficients.instance, layout, migration_cost, num_sites
    )
    return dataclasses.replace(coefficients, migration=block)


class CoefficientCache:
    """Shares the parameter-independent work of :func:`build_coefficients`
    across the points of a parameter sweep.

    Indicators and weights depend only on the instance; the coefficient
    arrays built from them go through :func:`_assemble_coefficients`
    with exactly the same operations as an uncached build, so the
    returned :class:`CostCoefficients` are bitwise identical to
    ``build_coefficients(instance, parameters)`` — sweeps using the
    cache reproduce uncached results to the last ulp.  Repeated requests
    for the *same* parameters additionally return the same object, so
    its ``cached_property`` products (``phi_bool``, the write tensors,
    table groups, ...) are also shared across sweep points.

    ``capacity`` bounds the number of per-parameters entries the memo
    retains (least-recently-used eviction beyond it, counted in
    :attr:`evictions`): a week-long advisor service that sees many
    distinct cost parameters must not grow without bound.  The default
    ``None`` keeps the historical unbounded behaviour; eviction never
    changes any returned value — an evicted entry is simply reassembled
    (bitwise identically) on the next request.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        indicators: IndicatorArrays | None = None,
        capacity: int | None = None,
    ):
        if capacity is not None and capacity < 1:
            from repro.exceptions import OptionsError

            raise OptionsError(
                f"coefficient cache capacity must be >= 1 (or None for "
                f"unbounded), got {capacity}"
            )
        self.instance = instance
        self.indicators = indicators or build_indicators(instance)
        self.weights = build_weights(instance)
        self.capacity = capacity
        self._memo: OrderedDict[CostParameters, CostCoefficients] = OrderedDict()
        #: Memo hit/miss counters (every miss still shares the cached
        #: indicators/weights — only the coefficient assembly reruns).
        self.hits = 0
        self.misses = 0
        #: Entries dropped by the LRU bound (0 while unbounded).
        self.evictions = 0

    def coefficients(self, parameters: CostParameters | None = None) -> CostCoefficients:
        """The coefficients for ``parameters`` (memoised per parameters)."""
        parameters = parameters or CostParameters()
        cached = self._memo.get(parameters)
        if cached is None:
            self.misses += 1
            cached = _assemble_coefficients(
                self.instance, parameters, self.indicators, self.weights
            )
            self._memo[parameters] = cached
            if self.capacity is not None:
                while len(self._memo) > self.capacity:
                    self._memo.popitem(last=False)
                    self.evictions += 1
        else:
            self.hits += 1
            self._memo.move_to_end(parameters)
        return cached

    def stats(self) -> dict[str, int]:
        """Hit/miss/evict counters as one dictionary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
