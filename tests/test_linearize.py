"""The linearised model (7): construction, extraction, consistency."""

import numpy as np
import pytest

from repro.costmodel.coefficients import CoefficientCache, build_coefficients
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import SolverError
from repro.qp.linearize import LinearizationCache, build_linearized_model
from repro.solver.model import MipModel
from tests.conftest import small_random_instance, solution_violations


class TestConstruction:
    def test_variable_counts(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        model = linearized.model
        # 2 transactions * 2 sites + 5 attributes * 2 sites binaries.
        assert model.num_integer_variables == 4 + 10
        assert linearized.m_var is not None  # lambda < 1 by default

    def test_pure_cost_has_no_load_variable(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(load_balance_lambda=1.0)
        )
        linearized = build_linearized_model(coefficients, 2)
        assert linearized.m_var is None

    def test_u_variables_only_for_nonzero_pairs(self, tiny_coefficients):
        linearized = build_linearized_model(tiny_coefficients, 2)
        c1, c3 = tiny_coefficients.c1, tiny_coefficients.c3
        pairs = {(t, a) for (t, a, _) in linearized.u_vars}
        for t, a in pairs:
            assert c1[a, t] != 0 or c3[a, t] != 0

    def test_replication_flag_changes_constraint(self, tiny_coefficients):
        replicated = build_linearized_model(tiny_coefficients, 2)
        disjoint = build_linearized_model(
            tiny_coefficients, 2, allow_replication=False
        )
        # Same sizes; only senses differ on the y-placement rows.
        from repro.solver.expr import Sense

        def y_senses(linearized):
            return [
                c.sense
                for c in linearized.model.constraints
                if c.name.startswith("place_y")
            ]

        assert all(s is Sense.GE for s in y_senses(replicated))
        assert all(s is Sense.EQ for s in y_senses(disjoint))

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
        linearized = build_linearized_model(tiny_coefficients, 2)
        names = [c.name for c in linearized.model.constraints]
        assert any(name.startswith("sym[") for name in names)
        unbroken = build_linearized_model(
            tiny_coefficients, 2, symmetry_breaking=False
        )
        assert not any(
            c.name.startswith("sym[") for c in unbroken.model.constraints
        )


def _assert_same_arrays(first, second):
    """Two models must convert to identical standard arrays."""
    a = first.model.to_standard_arrays()
    b = second.model.to_standard_arrays()
    np.testing.assert_array_equal(a.objective, b.objective)
    assert (a.matrix != b.matrix).nnz == 0
    np.testing.assert_array_equal(a.rhs, b.rhs)
    assert a.senses == b.senses
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)
    np.testing.assert_array_equal(a.integrality, b.integrality)


class TestLinearizationCache:
    """The sweep-level skeleton cache must never change the model."""

    def test_penalty_sweep_hits_and_matches_uncached(self):
        instance = small_random_instance(4)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for penalty in (1.0, 4.0, 16.0, 64.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(network_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            _assert_same_arrays(cached, plain)
        assert cache.hits == 3  # first point builds, the rest re-price

    def test_lambda_regime_change_misses(self):
        """Crossing lambda = 1 adds/removes the load side; the cache
        must rebuild, not reuse."""
        instance = small_random_instance(4)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for lam in (1.0, 0.5):
            coefficients = coefficient_cache.coefficients(
                CostParameters(load_balance_lambda=lam)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            assert (cached.m_var is None) == (lam >= 1.0)
            _assert_same_arrays(cached, plain)
        assert cache.hits == 0

    def test_different_instance_misses(self):
        cache = LinearizationCache()
        for seed in (4, 5):
            coefficients = build_coefficients(
                small_random_instance(seed), CostParameters()
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            _assert_same_arrays(cached, plain)
        assert cache.hits == 0

    def test_cached_solutions_identical(self):
        """Solving the re-priced clone gives the same optimum."""
        instance = small_random_instance(1)
        coefficient_cache = CoefficientCache(instance)
        cache = LinearizationCache()
        for penalty in (2.0, 8.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(network_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, cache=cache)
            plain = build_linearized_model(coefficients, 2)
            solved_cached = cached.model.solve(gap=1e-9)
            solved_plain = plain.model.solve(gap=1e-9)
            assert solved_cached.objective == pytest.approx(
                solved_plain.objective, rel=1e-9
            )

    def test_latency_models_cacheable(self):
        instance = small_random_instance(2)
        indicators = None
        cache = LinearizationCache()
        coefficient_cache = CoefficientCache(instance, indicators)
        for penalty in (5.0, 10.0):
            coefficients = coefficient_cache.coefficients(
                CostParameters(latency_penalty=penalty)
            )
            cached = build_linearized_model(coefficients, 2, latency=True, cache=cache)
            plain = build_linearized_model(coefficients, 2, latency=True)
            assert cached.psi_vars.keys() == plain.psi_vars.keys()
            _assert_same_arrays(cached, plain)
        assert cache.hits == 1


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
        for (t, a, s), u in linearized.u_vars.items():
            assert solution.values[u.index] == pytest.approx(
                float(x[t, s] and y[a, s]), abs=1e-6
            )

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

    def test_latency_variables_created_for_writes(self, tiny_instance):
        coefficients = build_coefficients(
            tiny_instance, CostParameters(latency_penalty=10.0)
        )
        linearized = build_linearized_model(coefficients, 2, latency=True)
        assert len(linearized.psi_vars) == 1  # one write query
        solution = linearized.model.solve(gap=1e-9)
        x, y = linearized.extract(solution.values)
        evaluator = SolutionEvaluator(coefficients)
        q_index = next(iter(linearized.psi_vars))
        psi_value = solution.values[linearized.psi_vars[q_index].index]
        assert psi_value == pytest.approx(
            evaluator.latency(x, y) / 10.0, abs=1e-6
        )


def test_solution_violations_counts_bound_and_row_violations():
    model = MipModel()
    x = model.add_variable("x", upper=1)
    model.add_constraint(x <= 0.5)
    arrays = model.to_standard_arrays()
    assert solution_violations(arrays, np.array([0.4])) == 0.0
    assert solution_violations(arrays, np.array([0.9])) > 0.0
    assert solution_violations(arrays, np.array([1.5])) > 0.0
