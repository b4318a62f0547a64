"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.instances.random_gen import InstanceParameters, generate_instance
from repro.model.instance import ProblemInstance
from repro.model.schema import SchemaBuilder
from repro.model.workload import Query, Transaction, Workload
from repro.solver.model import RowBlock, StandardArrays


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "chaos: deterministic fault-injection suite for the socket "
        "transport (run on its own in CI via `pytest -m chaos`)",
    )


@pytest.fixture
def tiny_instance() -> ProblemInstance:
    """Two tables, two transactions — small enough to reason about by hand.

    Wide.blob is read by nobody (free placement); Narrow.key is read by
    both transactions (forces co-location wherever both run).
    """
    schema = (
        SchemaBuilder("tiny")
        .table("Narrow", key=4, value=8)
        .table("Wide", key=4, payload=100, blob=200)
        .build()
    )
    workload = Workload(
        [
            Transaction(
                "Reader",
                (
                    Query.read("Reader.getNarrow", ["Narrow.key", "Narrow.value"]),
                    Query.read("Reader.getWide", ["Wide.key", "Wide.payload"]),
                ),
            ),
            Transaction(
                "Writer",
                (
                    Query.read("Writer.find", ["Narrow.key"]),
                    Query.write("Writer.update", ["Wide.payload"], rows=2.0),
                ),
            ),
        ],
        name="tiny-load",
    )
    return ProblemInstance(schema, workload, name="tiny")


@pytest.fixture
def tiny_coefficients(tiny_instance) -> CostCoefficients:
    return build_coefficients(tiny_instance, CostParameters())


@pytest.fixture
def paper_parameters() -> CostParameters:
    return CostParameters()


def small_random_instance(seed: int, **overrides) -> ProblemInstance:
    """A small random instance for property tests (deterministic by seed)."""
    defaults = dict(
        name=f"prop-{seed}",
        num_transactions=4,
        num_tables=3,
        max_queries_per_transaction=3,
        update_percent=30.0,
        max_attributes_per_table=5,
        max_table_refs_per_query=2,
        max_attribute_refs_per_query=4,
        attribute_widths=(2.0, 8.0),
        max_frequency=5,
        max_rows=3,
    )
    defaults.update(overrides)
    return generate_instance(InstanceParameters(**defaults), seed=seed)


def random_feasible_solution(
    coefficients: CostCoefficients, num_sites: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """A random (x, y) satisfying all constraints of model (4)."""
    rng = np.random.default_rng(seed)
    num_transactions = coefficients.num_transactions
    num_attributes = coefficients.num_attributes
    x = np.zeros((num_transactions, num_sites), dtype=bool)
    x[np.arange(num_transactions), rng.integers(0, num_sites, num_transactions)] = True
    y = rng.random((num_attributes, num_sites)) < 0.4
    # Enforce coverage and read co-location.
    uncovered = ~y.any(axis=1)
    y[uncovered, rng.integers(0, num_sites, int(uncovered.sum()))] = True
    forced = coefficients.phi_bool @ x
    y |= forced.astype(bool)
    return x, y


def brute_force_optimum(
    coefficients: CostCoefficients, num_sites: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact optimum of objective (4) with lambda = 1 by enumeration.

    Enumerates all transaction placements; for fixed ``x`` the optimal
    ``y`` decomposes per (attribute, site): a replica is placed where
    forced, where its net coefficient is negative, and at the cheapest
    site if still uncovered. Only valid for pure cost minimisation
    (``load_balance_lambda == 1``).
    """
    assert coefficients.parameters.load_balance_lambda == 1.0
    num_transactions = coefficients.num_transactions
    best = (np.inf, None, None)
    evaluator = SolutionEvaluator(coefficients)
    for code in range(num_sites**num_transactions):
        x = np.zeros((num_transactions, num_sites), dtype=bool)
        remaining = code
        for t in range(num_transactions):
            x[t, remaining % num_sites] = True
            remaining //= num_sites
        k = coefficients.c1 @ x.astype(float) + coefficients.c2[:, None]
        forced = (coefficients.phi_bool.astype(float) @ x.astype(float)) > 0
        y = forced | (k < 0)
        uncovered = ~y.any(axis=1)
        if uncovered.any():
            cheapest = np.argmin(k[uncovered], axis=1)
            y[np.flatnonzero(uncovered), cheapest] = True
        cost = evaluator.objective4(x, y)
        if cost < best[0] - 1e-9:
            best = (cost, x, y)
    return best


def dense_block(matrix, lower=-np.inf, upper=np.inf) -> RowBlock:
    """A :class:`RowBlock` from a dense coefficient matrix (zeros dropped)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = np.nonzero(matrix)
    shape = (matrix.shape[0],)
    return RowBlock(
        rows, cols, matrix[rows, cols],
        np.broadcast_to(np.asarray(lower, dtype=float), shape),
        np.broadcast_to(np.asarray(upper, dtype=float), shape),
    )


def solution_violations(
    arrays: StandardArrays, values: np.ndarray, tol: float = 1e-6
) -> float:
    """Total constraint and bound violation of ``values`` in a MIP's
    array form (0 when feasible)."""
    lhs = arrays.matrix @ values
    residual = float(np.maximum(arrays.row_lower - lhs - tol, 0.0).sum())
    residual += float(np.maximum(lhs - arrays.row_upper - tol, 0.0).sum())
    residual += float(np.maximum(arrays.lower - values - tol, 0.0).sum())
    residual += float(np.maximum(values - arrays.upper - tol, 0.0).sum())
    return residual
