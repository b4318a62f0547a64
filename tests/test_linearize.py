"""The linearised model (7): construction, extraction, consistency."""

import hashlib

import numpy as np
import pytest

from repro.costmodel.coefficients import (
    CoefficientCache,
    attach_migration,
    build_coefficients,
)
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError
from repro.instances import tpcc_instance
from repro.partition import CurrentLayout
from repro.qp.linearize import build_linearized_model
from repro.solver.model import MipModel
from tests.conftest import dense_block, small_random_instance, solution_violations


class TestConstruction:
    def test_variable_counts(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        model = linearized.model
        # 2 transactions * 2 sites + 5 attributes * 2 sites binaries.
        assert model.num_integer_variables == 4 + 10
        assert linearized.m_column is not None  # lambda < 1 by default

    def test_pure_cost_has_no_load_variable(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(load_balance_lambda=1.0)
        )
        linearized = build_linearized_model(coefficients, 2)
        assert linearized.m_column is None

    def test_u_variables_only_for_nonzero_pairs(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        c1, c3 = tiny_coefficients.c1, tiny_coefficients.c3
        assert linearized.u_columns.shape == (len(linearized.pairs), 2)
        for a, t in linearized.pairs:
            assert c1[a, t] != 0 or c3[a, t] != 0

    def test_replication_flag_changes_constraint(self, tiny_coefficients):
        replicated = build_linearized_model(tiny_coefficients, 2)
        disjoint = build_linearized_model(
            tiny_coefficients, 2, allow_replication=False
        )
        a = replicated.model.to_standard_arrays()
        b = disjoint.model.to_standard_arrays()
        # Same matrix; only the y-placement rows (after the x-placement
        # rows) lose their upper bound when replication is allowed.
        assert (a.matrix != b.matrix).nnz == 0
        rows = slice(tiny_coefficients.num_transactions,
                     tiny_coefficients.num_transactions
                     + tiny_coefficients.num_attributes)
        assert (a.row_lower[rows] == 1).all() and (b.row_lower[rows] == 1).all()
        assert np.isinf(a.row_upper[rows]).all()
        assert (b.row_upper[rows] == 1).all()
        others = np.ones(a.num_constraints, dtype=bool)
        others[rows] = False
        np.testing.assert_array_equal(a.row_upper[others], b.row_upper[others])

    def test_rejects_relevant_accounting(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance,
            CostParameters(write_accounting=WriteAccounting.RELEVANT_ATTRIBUTES),
        )
        with pytest.raises(SolverError, match="RELEVANT"):
            build_linearized_model(coefficients, 2)

    def test_rejects_zero_sites(self, tiny_coefficients):
        with pytest.raises(SolverError, match="at least one site"):
            build_linearized_model(tiny_coefficients, 0)

    def test_symmetry_breaking_pins_first_transactions(self, tiny_coefficients):
        def pinned_x(linearized):
            """x columns fixed to 0 by a single-entry ``<= 0`` row."""
            arrays = linearized.model.to_standard_arrays()
            indptr = arrays.matrix.indptr
            rows = np.flatnonzero(
                (np.diff(indptr) == 1) & (arrays.row_upper == 0)
            )
            columns = arrays.matrix.indices[indptr[rows]]
            return set(columns[np.isin(columns, linearized.x_columns)])

        linearized = build_linearized_model(tiny_coefficients, 2)
        assert pinned_x(linearized) == {linearized.x_columns[0, 1]}
        unbroken = build_linearized_model(
            tiny_coefficients, 2, symmetry_breaking=False
        )
        assert pinned_x(unbroken) == set()


def _small_ints(values: np.ndarray) -> np.ndarray:
    """Bounds as int8, with ±inf as ±2 (every finite bound is -1, 0 or 1)."""
    return np.nan_to_num(values, posinf=2.0, neginf=-2.0).astype(np.int8)


def layout_digest(arrays) -> str:
    """sha256 over the platform-independent parts of a model's arrays:
    the CSR pattern, the row-bound pattern, the column upper bounds and
    the integrality mask (coefficient values are left out)."""
    digest = hashlib.sha256()
    for part in (
        arrays.matrix.indptr.astype(np.int64),
        arrays.matrix.indices.astype(np.int64),
        _small_ints(arrays.row_lower),
        _small_ints(arrays.row_upper),
        _small_ints(arrays.upper),
        arrays.integrality.astype(np.uint8),
    ):
        digest.update(part.tobytes())
    return digest.hexdigest()[:16]


#: Layout digests of model (7) on TPC-C, keyed by
#: ``(sites, replicated, lambda, latency)``.  A row or column reorder
#: changes HiGHS's search (and so every time-limited result); it must
#: fail here rather than slip through.
TPCC_LAYOUT = {
    (2, True, 1.0, False): "49f4bed928a57aa7",
    (2, True, 1.0, True): "a6e82620f55dcbdb",
    (2, True, 0.5, False): "53a422e547f7b0b1",
    (2, True, 0.5, True): "2dfcf324c65f153f",
    (2, False, 1.0, False): "76c7d822aed65b16",
    (2, False, 1.0, True): "1c9659710dc91ca5",
    (2, False, 0.5, False): "197f4af6f0dd7f6c",
    (2, False, 0.5, True): "bb73fe17d0a654d6",
    (3, True, 1.0, False): "d727003310cfbc92",
    (3, True, 1.0, True): "eb55ecfb9ae3cf80",
    (3, True, 0.5, False): "7308807a1b9f9c7e",
    (3, True, 0.5, True): "8bc312d5e03fc3d3",
    (3, False, 1.0, False): "647884ab498a7423",
    (3, False, 1.0, True): "1baa6e542a677fc1",
    (3, False, 0.5, False): "93cd6f9a92bf5232",
    (3, False, 0.5, True): "b89fc767d0ff096d",
    (4, True, 1.0, False): "abcf205bc41fe598",
    (4, True, 1.0, True): "df9fdf86c3324507",
    (4, True, 0.5, False): "53c0b64ebc5fb79f",
    (4, True, 0.5, True): "2a1d6b615fa766d9",
    (4, False, 1.0, False): "f433b904eb09bba9",
    (4, False, 1.0, True): "6d167d87b1c6fd26",
    (4, False, 0.5, False): "4b39c03e2217219a",
    (4, False, 0.5, True): "d058a166433fe88f",
}


class TestLayoutPin:
    @pytest.mark.parametrize("key", sorted(TPCC_LAYOUT), ids=str)
    def test_tpcc_layout_pinned(self, key):
        sites, replicated, lam, latency = key
        parameters = CostParameters(
            load_balance_lambda=lam, latency_penalty=10.0 if latency else 0.0
        )
        linearized = build_linearized_model(
            build_coefficients(tpcc_instance(), parameters), sites,
            allow_replication=replicated, latency=latency,
        )
        arrays = linearized.model.to_standard_arrays()
        assert layout_digest(arrays) == TPCC_LAYOUT[key]


class TestCoefficientCache:
    def test_bitwise_identical_to_uncached(self):
        instance = small_random_instance(0)
        coefficient_cache = CoefficientCache(instance)
        for parameters in (
            CostParameters(),
            CostParameters(network_penalty=0.0),
            CostParameters(network_penalty=32.0, load_balance_lambda=0.5),
            CostParameters(write_accounting=WriteAccounting.NO_ATTRIBUTES),
        ):
            cached = coefficient_cache.coefficients(parameters)
            plain = build_coefficients(instance, parameters)
            for name in ("c1", "c2", "c3", "c4", "weights"):
                np.testing.assert_array_equal(
                    getattr(cached, name), getattr(plain, name)
                )

    def test_same_parameters_share_object(self):
        instance = small_random_instance(0)
        coefficient_cache = CoefficientCache(instance)
        first = coefficient_cache.coefficients(CostParameters(network_penalty=8.0))
        second = coefficient_cache.coefficients(CostParameters(network_penalty=8.0))
        assert first is second


class TestSolutionConsistency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mip_objective_matches_evaluator(self, seed):
        """At the MIP optimum, the model's objective equals the
        evaluator's objective (6) of the extracted solution, and every
        u variable equals x*y."""
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        linearized = build_linearized_model(coefficients, 2)
        solution = linearized.model.solve(gap=1e-9)
        x, y = linearized.extract(solution.values)
        evaluator = SolutionEvaluator(coefficients)
        assert solution.objective == pytest.approx(
            evaluator.objective6(x, y), rel=1e-6
        )
        attributes, transactions = linearized.pairs.T
        np.testing.assert_allclose(
            solution.values[linearized.u_columns],
            x[transactions] & y[attributes], atol=1e-6,
        )
        # The incumbent encoding prices the solution the same way.
        assert linearized.model.objective @ linearized.incumbent_vector(
            x, y
        ) == pytest.approx(solution.objective, rel=1e-6)

    def test_incumbent_vector_round_trips(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        x = np.array([[True, False], [False, True]])
        phi = tiny_coefficients.phi_bool
        y = (phi @ x).astype(bool)
        y[~y.any(axis=1), 0] = True
        values = linearized.incumbent_vector(x, y)
        x2, y2 = linearized.extract(values)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)
        # The incumbent must satisfy the model's constraints.
        assert solution_violations(
            linearized.model.to_standard_arrays(), values
        ) == 0.0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_incumbent_priced_and_feasible_like_evaluator(self, seed):
        """Every block, checked against the evaluator: a random feasible
        layout encodes to a vector that satisfies all rows, and model
        (7) prices it at objective (6) plus the latency term."""
        instance = small_random_instance(seed)
        rng = np.random.default_rng(seed)
        num_sites = 3
        parameters = CostParameters(load_balance_lambda=0.5, latency_penalty=4.0)
        coefficients = attach_migration(
            build_coefficients(instance, parameters),
            CurrentLayout.from_matrix(
                instance, np.eye(num_sites, dtype=bool)[
                    rng.integers(num_sites, size=len(instance.attributes))
                ],
            ),
            1.5, num_sites,
        )
        linearized = build_linearized_model(coefficients, num_sites, latency=True)
        assert linearized.psi_queries.size and linearized.m_column is not None
        x = np.zeros((coefficients.num_transactions, num_sites), dtype=bool)
        # Transaction t may use sites 0..t (symmetry breaking).
        sites = rng.integers(np.minimum(np.arange(len(x)), num_sites - 1) + 1)
        x[np.arange(len(x)), sites] = True
        y = (coefficients.phi_bool.astype(float) @ x) > 0
        y |= rng.random(y.shape) < 0.3
        y[~y.any(axis=1), 0] = True
        values = linearized.incumbent_vector(x, y)
        arrays = linearized.model.to_standard_arrays()
        assert solution_violations(arrays, values) == 0.0
        evaluator = SolutionEvaluator(coefficients)
        assert linearized.model.objective @ values == pytest.approx(
            evaluator.objective6(x, y) + 0.5 * evaluator.latency(x, y), rel=1e-9
        )
        # The load rows are tight: any smaller m violates one.
        values[linearized.m_column] *= 1.0 - 1e-3
        assert solution_violations(arrays, values) > 0.0

    def test_latency_variables_created_for_writes(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(latency_penalty=10.0)
        )
        linearized = build_linearized_model(coefficients, 2, latency=True)
        assert len(linearized.psi_queries) == 1  # one write query
        solution = linearized.model.solve(gap=1e-9)
        x, y = linearized.extract(solution.values)
        evaluator = SolutionEvaluator(coefficients)
        psi_value = solution.values[linearized.psi_columns[0]]
        assert psi_value == pytest.approx(
            evaluator.latency(x, y) / 10.0, abs=1e-6
        )


def test_solution_violations_counts_bound_and_row_violations():
    model = MipModel(
        "bounds", objective=np.zeros(1), lower=np.zeros(1), upper=np.ones(1),
        integrality=np.zeros(1, dtype=bool),
        blocks=(dense_block([[1.0]], upper=0.5),),
    )
    arrays = model.to_standard_arrays()
    assert solution_violations(arrays, np.array([0.4])) == 0.0
    assert solution_violations(arrays, np.array([0.9])) > 0.0
    assert solution_violations(arrays, np.array([1.5])) > 0.0
