"""MipModel construction, array conversion and solving."""

import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.solver.model import MipModel, RowBlock
from repro.solver.solution import MipSolution, SolutionStatus
from tests.conftest import dense_block


def make_model(
    objective,
    rows=(),
    lower=None,
    upper=None,
    integer=None,
    row_lower=-np.inf,
    row_upper=np.inf,
) -> MipModel:
    """A model over ``len(objective)`` columns with one dense row block
    (``lower`` defaults to 0, ``upper`` to +inf, all continuous)."""
    n = len(objective)
    blocks = (dense_block(rows, row_lower, row_upper),) if len(rows) else ()
    return MipModel(
        "test",
        objective=np.asarray(objective, dtype=float),
        lower=np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
        integrality=np.zeros(n, dtype=bool) if integer is None else np.asarray(integer),
        blocks=blocks,
    )


class TestConstruction:
    def test_counts(self):
        model = make_model([0.0, 0.0], rows=[[1.0, 1.0]], upper=[np.inf, 1.0],
                           integer=[False, True], row_upper=1.0)
        assert model.num_variables == 2
        assert model.num_integer_variables == 1
        assert model.num_constraints == 1

    def test_inverted_bounds_rejected(self):
        with pytest.raises(SolverError, match="upper bound"):
            make_model([0.0], lower=[2.0], upper=[1.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(SolverError, match="shape"):
            MipModel("bad", objective=np.zeros(2), lower=np.zeros(3),
                     upper=np.ones(2), integrality=np.zeros(2, dtype=bool))


class TestStandardArrays:
    def test_objective_vector(self):
        arrays = make_model([2.0, -1.0]).to_standard_arrays()
        np.testing.assert_array_equal(arrays.objective, [2.0, -1.0])
        assert arrays.num_constraints == 0

    def test_matrix_and_senses(self):
        # x + 2y <= 3, x - y >= 1, x + y == 2 as row bounds.
        model = MipModel(
            "senses", objective=np.zeros(2), lower=np.zeros(2),
            upper=np.array([4.0, np.inf]), integrality=np.zeros(2, dtype=bool),
            blocks=(
                dense_block([[1, 2]], upper=3),
                dense_block([[1, -1]], lower=1),
                dense_block([[1, 1]], lower=2, upper=2),
            ),
        )
        arrays = model.to_standard_arrays()
        np.testing.assert_array_equal(
            arrays.matrix.toarray(), [[1, 2], [1, -1], [1, 1]]
        )
        np.testing.assert_array_equal(arrays.row_lower, [-np.inf, 1, 2])
        np.testing.assert_array_equal(arrays.row_upper, [3, np.inf, 2])
        assert arrays.upper[0] == 4 and np.isinf(arrays.upper[1])

    def test_blocks_stack_with_local_rows(self):
        """Each block numbers its rows from 0; stacking offsets them."""
        first = RowBlock(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 1.0]),
                         np.array([1.0]), np.array([1.0]))
        second = RowBlock(np.array([1, 0]), np.array([0, 1]), np.array([5.0, 7.0]),
                          np.full(2, -np.inf), np.zeros(2))
        model = MipModel("stack", objective=np.zeros(2), lower=np.zeros(2),
                         upper=np.ones(2), integrality=np.ones(2, dtype=bool),
                         blocks=(first, second))
        np.testing.assert_array_equal(
            model.to_standard_arrays().matrix.toarray(),
            [[1, 1], [0, 7], [5, 0]],
        )

    def test_integrality_mask(self):
        arrays = make_model([0.0, 0.0], upper=[np.inf, 1.0],
                            integer=[False, True]).to_standard_arrays()
        np.testing.assert_array_equal(arrays.integrality, [False, True])


class TestSolve:
    def test_no_values_raises(self):
        solution = make_model([1.0], rows=[[1.0]], upper=[2.0], row_lower=5.0).solve()
        assert solution.status is SolutionStatus.INFEASIBLE
        assert solution.values is None and solution.objective is None

    def test_gap_property(self):
        solution = MipSolution(
            status=SolutionStatus.FEASIBLE, objective=100.0, values=None, bound=95.0
        )
        assert solution.gap == pytest.approx(0.05)
        assert "backend" not in repr(solution)


def _knapsack_model():
    # max 10a + 6b + 4c, 5a + 4b + 3c <= 10, binaries -> optimum 16 (a, b).
    return make_model(
        [-10.0, -6.0, -4.0], rows=[[5, 4, 3]], upper=np.ones(3),
        integer=np.ones(3, dtype=bool), row_upper=10.0,
    )


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
        model = make_model([-3.0, -4.0], rows=[[2, 5]], upper=[10, 10],
                           integer=[True, True], row_upper=16.0)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-24.0)  # x=8, y=0

    def test_mixed_integer_continuous(self):
        model = make_model([-1.0, -2.0], rows=[[1, 1]], upper=[5, 5],
                           integer=[True, False], row_upper=4.5)
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-9.0)  # y=4.5, x=0

    def test_infeasible_mip(self):
        model = make_model([1.0], rows=[[1.0]], upper=[1.0], integer=[True],
                           row_lower=2.0)
        assert model.solve().status is SolutionStatus.INFEASIBLE

    def test_simple_maximisation(self):
        # max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18 (classic Dantzig),
        # solved as min -3x - 5y.
        model = make_model([-3.0, -5.0], rows=[[1, 0], [0, 2], [3, 2]],
                           row_upper=[4.0, 12.0, 18.0])
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(-36.0)
        np.testing.assert_allclose(solution.values, [2.0, 6.0], atol=1e-8)

    def test_equality_constraints(self):
        model = make_model([1.0, 2.0], rows=[[1, 1], [1, -1]],
                           row_lower=[10.0, 2.0], row_upper=[10.0, 2.0])
        solution = model.solve()
        assert solution.status is SolutionStatus.OPTIMAL
        np.testing.assert_allclose(solution.values, [6.0, 4.0], atol=1e-8)

    def test_unbounded(self):
        model = make_model([-1.0], rows=[[1.0]], row_lower=1.0)
        assert model.solve().status is SolutionStatus.UNBOUNDED

    def test_nonzero_lower_bounds(self):
        model = make_model([1.0], rows=[[1.0]], lower=[3.0], upper=[10.0],
                           row_upper=8.0)
        assert model.solve().objective == pytest.approx(3.0)

    def test_unconstrained_model(self):
        model = make_model([-1.0], upper=[2.0])
        assert model.solve().objective == pytest.approx(-2.0)
