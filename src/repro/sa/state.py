"""SA search state helpers: random starts and component placements."""

from __future__ import annotations

import numpy as np


def random_transaction_placement(
    num_transactions: int, num_sites: int, rng: np.random.Generator
) -> np.ndarray:
    """A uniformly random ``x`` satisfying one-site-per-transaction."""
    x = np.zeros((num_transactions, num_sites), dtype=bool)
    sites = rng.integers(0, num_sites, size=num_transactions)
    x[np.arange(num_transactions), sites] = True
    return x


def component_placement_to_x(
    labels: np.ndarray, assignment: np.ndarray, num_sites: int
) -> np.ndarray:
    """Expand a component -> site assignment into an ``x`` matrix."""
    num_transactions = labels.shape[0]
    x = np.zeros((num_transactions, num_sites), dtype=bool)
    x[np.arange(num_transactions), assignment[labels]] = True
    return x
