"""Attribute-affinity clustering baseline (bond energy algorithm).

The classic vertical-partitioning pipeline cited in the paper's related
work (Navathe et al. style):

1. build the attribute affinity matrix
   ``AA[a,b] = sum over queries co-accessing a and b of f_q * n_q``,
2. order attributes with the bond energy algorithm (BEA) of McCormick
   et al., which greedily inserts each attribute at the position
   maximising the "bond" to its neighbours,
3. cut the ordered sequence into ``|S|`` contiguous fragments at the
   weakest bonds,
4. place each transaction on the site whose fragment it reads most,
5. repair read co-location by replicating missing attributes.

This is not cost-model-aware (it ignores the transfer penalty and load
balancing), which is exactly the gap the paper's algorithms close — the
ablation benchmark quantifies it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.signature import resolve_legacy_params
from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.constants import row_counts
from repro.costmodel.evaluator import SolutionEvaluator
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult
from repro.sa.subsolve import SubproblemSolver


def affinity_matrix(coefficients: CostCoefficients) -> np.ndarray:
    """``AA[a,b] = sum_q alpha[a,q] * alpha[b,q] * f_q * n_q``.

    ``n_q`` is taken as the row count of the table holding ``a`` (the
    matrix is made symmetric by averaging both directions).
    """
    alpha = coefficients.indicators.alpha
    frequencies = coefficients.query_frequencies
    weighted = alpha * (frequencies[None, :] * row_counts(coefficients.instance))
    affinity = weighted @ alpha.T
    return (affinity + affinity.T) / 2.0


def bond_energy_order(affinity: np.ndarray) -> list[int]:
    """Order attributes by the bond energy algorithm (BEA).

    Attributes are inserted one by one at the position maximising the
    incremental bond ``2 * bond(left, new) + 2 * bond(new, right)
    - 2 * bond(left, right)`` where ``bond(i, j) = sum_k AA[i,k] *
    AA[j,k]``.
    """
    n = affinity.shape[0]
    if n == 0:
        return []
    order = [0]
    bonds = affinity @ affinity.T  # bond(i, j)

    def bond(i: int | None, j: int | None) -> float:
        if i is None or j is None:
            return 0.0
        return float(bonds[i, j])

    for new in range(1, n):
        best_position, best_gain = 0, -np.inf
        for position in range(len(order) + 1):
            left = order[position - 1] if position > 0 else None
            right = order[position] if position < len(order) else None
            gain = 2 * bond(left, new) + 2 * bond(new, right) - 2 * bond(left, right)
            if gain > best_gain:
                best_gain, best_position = gain, position
        order.insert(best_position, new)
    return order


def _split_order(
    order: list[int], affinity: np.ndarray, num_fragments: int
) -> list[list[int]]:
    """Cut the BEA order at the ``num_fragments - 1`` weakest links."""
    if num_fragments <= 1 or len(order) <= num_fragments:
        if num_fragments <= 1:
            return [list(order)]
        # Degenerate: one attribute per fragment where possible.
        fragments = [[a] for a in order[: num_fragments - 1]]
        fragments.append(list(order[num_fragments - 1:]))
        return fragments
    link_strengths = [
        (float(affinity[order[i], order[i + 1]]), i) for i in range(len(order) - 1)
    ]
    cut_positions = sorted(
        index for _, index in sorted(link_strengths)[: num_fragments - 1]
    )
    fragments: list[list[int]] = []
    previous = 0
    for position in cut_positions:
        fragments.append(list(order[previous : position + 1]))
        previous = position + 1
    fragments.append(list(order[previous:]))
    return [fragment for fragment in fragments if fragment]


def affinity_partitioning(
    instance: ProblemInstance | CostCoefficients,
    num_sites: int,
    params: CostParameters | None = None,
    seed: int | None = None,
    **legacy,
) -> PartitioningResult:
    """BEA-clustered fragments, transactions by read overlap, repaired.

    ``seed`` is part of the normalised baseline signature and ignored —
    the BEA ordering is deterministic.
    """
    params = resolve_legacy_params("affinity_partitioning", params, legacy)
    del seed
    started = time.perf_counter()
    coefficients = (
        instance
        if isinstance(instance, CostCoefficients)
        else build_coefficients(instance, params)
    )
    num_attributes = coefficients.num_attributes
    num_transactions = coefficients.num_transactions

    affinity = affinity_matrix(coefficients)
    order = bond_energy_order(affinity)
    fragments = _split_order(order, affinity, num_sites)

    y = np.zeros((num_attributes, num_sites), dtype=bool)
    for site, fragment in enumerate(fragments):
        y[fragment, site] = True
    # Sites without a fragment (more sites than fragments) stay empty
    # until repair; every attribute already has one replica.
    for site in range(len(fragments), num_sites):
        pass

    # Transactions go where their read weight is largest.
    phi = coefficients.phi_bool.astype(float)
    read_weight = coefficients.c3  # (|A|, |T|)
    site_scores = np.zeros((num_transactions, num_sites))
    for site in range(num_sites):
        site_scores[:, site] = (read_weight * (phi * y[:, site : site + 1])).sum(axis=0)
    x = np.zeros((num_transactions, num_sites), dtype=bool)
    x[np.arange(num_transactions), site_scores.argmax(axis=1)] = True

    # Repair read co-location by replication.
    subsolver = SubproblemSolver(coefficients, num_sites)
    y = subsolver.repair_y(x, y)

    evaluator = SolutionEvaluator(coefficients)
    return PartitioningResult(
        coefficients=coefficients,
        x=x,
        y=y,
        objective=evaluator.objective4(x, y),
        solver="affinity",
        wall_time=time.perf_counter() - started,
        metadata={"fragments": [len(f) for f in fragments]},
    )
