"""MipModel construction and array conversion."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver.expr import Sense
from repro.solver.model import MipModel
from repro.solver.solution import SolutionStatus


@pytest.fixture
def model():
    return MipModel("test")


class TestConstruction:
    def test_duplicate_variable_names_rejected(self, model):
        model.add_variable("x")
        with pytest.raises(SolverError, match="duplicate"):
            model.add_variable("x")

    def test_binary_variable_bounds(self, model):
        b = model.binary_variable("b")
        assert b.lower == 0.0 and b.upper == 1.0 and b.is_integer

    def test_boolean_comparison_caught(self, model):
        """A common bug: comparing two plain floats folds to bool."""
        with pytest.raises(SolverError, match="Constraint"):
            model.add_constraint(1 <= 2)  # type: ignore[arg-type]

    def test_counts(self, model):
        x = model.add_variable("x")
        b = model.binary_variable("b")
        model.add_constraint(x + b <= 1)
        assert model.num_variables == 2
        assert model.num_integer_variables == 1
        assert model.num_constraints == 1


class TestStandardArrays:
    def test_objective_vector(self, model):
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.minimize(2 * x - y + 7)
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.objective, [2.0, -1.0])
        assert arrays.objective_constant == 7.0

    def test_maximization_negated(self, model):
        x = model.add_variable("x")
        model.maximize(3 * x + 1)
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.objective, [-3.0])
        assert arrays.objective_constant == -1.0

    def test_matrix_and_senses(self, model):
        x = model.add_variable("x", upper=4)
        y = model.add_variable("y")
        model.add_constraint(x + 2 * y <= 3)
        model.add_constraint(x - y >= 1)
        model.add_constraint(x + y == 2)
        arrays = model.to_standard_arrays()
        assert arrays.senses == (Sense.LE, Sense.GE, Sense.EQ)
        np.testing.assert_array_equal(
            arrays.matrix.toarray(), [[1, 2], [1, -1], [1, 1]]
        )
        np.testing.assert_array_equal(arrays.rhs, [3, 1, 2])
        assert arrays.upper[0] == 4 and np.isinf(arrays.upper[1])

    def test_integrality_mask(self, model):
        model.add_variable("x")
        model.binary_variable("b")
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(arrays.integrality, [False, True])


class TestSolve:
    def test_maximize_reports_original_sign(self, model):
        x = model.add_variable("x", upper=5)
        model.maximize(x)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(5.0)

    def test_solution_value_accessor(self, model):
        x = model.add_variable("x", upper=2)
        model.maximize(x)
        solution = model.solve()
        assert solution.value(x) == pytest.approx(2.0)

    def test_no_values_raises(self, model):
        x = model.add_variable("x", upper=2)
        model.add_constraint(x >= 5)
        model.minimize(x)
        solution = model.solve()
        assert solution.status is SolutionStatus.INFEASIBLE
        with pytest.raises(ValueError, match="no values"):
            solution.value(x)

    def test_gap_property(self):
        from repro.solver.solution import MipSolution

        solution = MipSolution(
            status=SolutionStatus.FEASIBLE, objective=100.0, values=None, bound=95.0
        )
        assert solution.gap == pytest.approx(0.05)


def _knapsack_model():
    # max 10a + 6b + 4c, 5a + 4b + 3c <= 10, binaries -> optimum 16 (a, b).
    model = MipModel("knapsack")
    a = model.binary_variable("a")
    b = model.binary_variable("b")
    c = model.binary_variable("c")
    model.add_constraint(5 * a + 4 * b + 3 * c <= 10)
    model.minimize(-10 * a - 6 * b - 4 * c)
    return model


class TestKnownModels:
    """Textbook LPs and MIPs through ``MipModel.solve``."""

    def test_knapsack(self):
        solution = _knapsack_model().solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-16.0)

    def test_bound_is_valid(self):
        solution = _knapsack_model().solve()
        assert solution.bound is not None
        assert solution.bound <= solution.objective + 1e-9

    def test_integer_rounding_not_assumed(self):
        # LP relaxation optimum is fractional; integer optimum differs.
        model = MipModel()
        x = model.add_variable("x", upper=10, integer=True)
        y = model.add_variable("y", upper=10, integer=True)
        model.add_constraint(2 * x + 5 * y <= 16)
        model.minimize(-3 * x - 4 * y)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-24.0)  # x=8, y=0

    def test_mixed_integer_continuous(self):
        model = MipModel()
        x = model.add_variable("x", upper=5, integer=True)
        y = model.add_variable("y", upper=5)
        model.add_constraint(x + y <= 4.5)
        model.minimize(-x - 2 * y)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-9.0)  # y=4.5, x=0

    def test_infeasible_mip(self):
        model = MipModel()
        x = model.binary_variable("x")
        model.add_constraint(x >= 2)
        model.minimize(x)
        assert model.solve().status is SolutionStatus.INFEASIBLE

    def test_simple_maximisation(self):
        # max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 (classic Dantzig).
        model = MipModel()
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x <= 4)
        model.add_constraint(2 * y <= 12)
        model.add_constraint(3 * x + 2 * y <= 18)
        model.maximize(3 * x + 5 * y)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(36.0)
        np.testing.assert_allclose(solution.values, [2.0, 6.0], atol=1e-8)

    def test_equality_constraints(self):
        model = MipModel()
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x + y == 10)
        model.add_constraint(x - y == 2)
        model.minimize(x + 2 * y)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        np.testing.assert_allclose(solution.values, [6.0, 4.0], atol=1e-8)

    def test_unbounded(self):
        model = MipModel()
        x = model.add_variable("x")
        model.add_constraint(x >= 1)
        model.minimize(-x)
        assert model.solve().status is SolutionStatus.UNBOUNDED

    def test_nonzero_lower_bounds(self):
        model = MipModel()
        x = model.add_variable("x", lower=3, upper=10)
        model.add_constraint(x <= 8)
        model.minimize(x)
        assert model.solve().objective == pytest.approx(3.0)

    def test_unconstrained_model(self):
        model = MipModel()
        x = model.add_variable("x", upper=2)
        model.minimize(-x)
        assert model.solve().objective == pytest.approx(-2.0)
