"""The incremental evaluator against the dense single source of truth.

The laws pinned here (see ``costmodel/incremental.py``):

* incremental objective (4)/(6) and site loads == dense evaluator to
  1e-9 after any sequence of moves / toggles / reassignments, across
  all three write-accounting modes, lambda in {1.0, 0.5} and
  replication on/off,
* trials restore the state bitwise on rollback,
* full SA runs produce the same result with the incremental evaluator
  and with the dense reference state (``tests/reference_subsolve.py``)
  for fixed seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
from repro.costmodel.incremental import IncrementalEvaluator
from repro.exceptions import InstanceError, SolverError
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.options import SaOptions
from tests.conftest import random_feasible_solution, small_random_instance
from tests.reference_subsolve import DenseState

ALL_MODES = tuple(WriteAccounting)
TOLERANCE = 1e-9


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _assert_state_matches_dense(
    incremental: IncrementalEvaluator, evaluator: SolutionEvaluator
) -> None:
    x, y = incremental.x_matrix(), incremental.y_matrix()
    assert _relative_gap(incremental.objective4(), evaluator.objective4(x, y)) < TOLERANCE
    assert _relative_gap(incremental.objective6(), evaluator.objective6(x, y)) < TOLERANCE
    dense_loads = evaluator.site_loads(x, y)
    scale = max(1.0, float(dense_loads.max()))
    assert float(np.abs(incremental.site_loads() - dense_loads).max()) / scale < TOLERANCE


def _coefficients(seed, mode, lam, **overrides):
    instance = small_random_instance(seed, **overrides)
    return build_coefficients(
        instance,
        CostParameters(write_accounting=mode, load_balance_lambda=lam),
    )


class TestAgreesWithDense:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_reset_matches_dense(self, mode, lam):
        for seed in range(4):
            coefficients = _coefficients(seed, mode, lam)
            evaluator = SolutionEvaluator(coefficients)
            x, y = random_feasible_solution(coefficients, 3, seed)
            incremental = IncrementalEvaluator(coefficients, 3)
            incremental.reset(x, y)
            _assert_state_matches_dense(incremental, evaluator)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_mutation_sequences_match_dense(self, mode, lam):
        """Random walks of moves, toggles and full reassignments stay
        glued to the dense evaluator."""
        num_sites = 3
        for seed in range(4):
            coefficients = _coefficients(
                seed, mode, lam, num_transactions=6, num_tables=4
            )
            evaluator = SolutionEvaluator(coefficients)
            x, y = random_feasible_solution(coefficients, num_sites, seed)
            incremental = IncrementalEvaluator(coefficients, num_sites)
            incremental.reset(x, y)
            rng = np.random.default_rng(seed + 1000)
            for step in range(25):
                roll = rng.random()
                if roll < 0.4:
                    chosen = rng.choice(
                        coefficients.num_transactions, size=2, replace=False
                    )
                    incremental.move_transactions(
                        chosen, rng.integers(0, num_sites, 2)
                    )
                elif roll < 0.8:
                    incremental.delta_toggle_replicas(
                        rng.integers(0, coefficients.num_attributes, 4),
                        rng.integers(0, num_sites, 4),
                    )
                else:
                    x_new, y_new = random_feasible_solution(
                        coefficients, num_sites, seed * 131 + step
                    )
                    incremental.assign_x(x_new)
                    incremental.assign_y(y_new)
                _assert_state_matches_dense(incremental, evaluator)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_single_replica_layouts(self, mode):
        """Replication off: one replica per attribute (disjoint-style
        y) round-trips through toggles correctly."""
        num_sites = 3
        coefficients = _coefficients(2, mode, 0.5)
        evaluator = SolutionEvaluator(coefficients)
        rng = np.random.default_rng(7)
        num_attributes = coefficients.num_attributes
        x = np.zeros((coefficients.num_transactions, num_sites), dtype=bool)
        x[:, 0] = True
        y = np.zeros((num_attributes, num_sites), dtype=bool)
        y[np.arange(num_attributes), 0] = True
        incremental = IncrementalEvaluator(coefficients, num_sites)
        incremental.reset(x, y)
        _assert_state_matches_dense(incremental, evaluator)
        # Migrate each attribute's single replica to a random site.
        targets = rng.integers(0, num_sites, num_attributes)
        for a in range(num_attributes):
            if targets[a] != 0:
                incremental.set_replicas([a, a], [0, targets[a]], False)
                incremental.set_replicas([a], [targets[a]], True)
        _assert_state_matches_dense(incremental, evaluator)
        assert (incremental.y_matrix().sum(axis=1) == 1).all()

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=200),
        mode=st.sampled_from(ALL_MODES),
        lam=st.sampled_from([1.0, 0.5]),
    )
    def test_delta_apis_return_dense_differences(self, seed, mode, lam):
        num_sites = 3
        coefficients = _coefficients(seed % 5, mode, lam)
        evaluator = SolutionEvaluator(coefficients)
        x, y = random_feasible_solution(coefficients, num_sites, seed)
        incremental = IncrementalEvaluator(coefficients, num_sites)
        incremental.reset(x, y)
        rng = np.random.default_rng(seed)
        base = evaluator.objective6(x, y)

        chosen = rng.choice(coefficients.num_transactions, size=2, replace=False)
        delta = incremental.delta_move_transactions(
            chosen, rng.integers(0, num_sites, 2)
        )
        after_move = evaluator.objective6(incremental.x_matrix(), incremental.y_matrix())
        assert delta == pytest.approx(after_move - base, abs=1e-6)

        attrs = rng.integers(0, coefficients.num_attributes, 3)
        sites = rng.integers(0, num_sites, 3)
        delta = incremental.delta_toggle_replicas(attrs, sites)
        after_toggle = evaluator.objective6(
            incremental.x_matrix(), incremental.y_matrix()
        )
        assert delta == pytest.approx(after_toggle - after_move, abs=1e-6)


class TestTrialProtocol:
    def test_rollback_is_bitwise_exact(self):
        coefficients = _coefficients(3, WriteAccounting.RELEVANT_ATTRIBUTES, 0.5)
        incremental = IncrementalEvaluator(coefficients, 3)
        x, y = random_feasible_solution(coefficients, 3, 3)
        incremental.reset(x, y)
        saved = {
            name: getattr(incremental, name).copy()
            for name in incremental._SNAP_ARRAYS
        }
        before = incremental.objective6()
        incremental.begin_trial()
        incremental.delta_toggle_replicas([0, 1, 2], [0, 1, 2])
        incremental.move_transactions([0, 1], [2, 2])
        incremental.rollback()
        assert incremental.objective6() == before
        for name, value in saved.items():
            assert np.array_equal(getattr(incremental, name), value), name

    def test_commit_keeps_mutations(self):
        coefficients = _coefficients(4, WriteAccounting.ALL_ATTRIBUTES, 1.0)
        evaluator = SolutionEvaluator(coefficients)
        incremental = IncrementalEvaluator(coefficients, 3)
        x, y = random_feasible_solution(coefficients, 3, 4)
        incremental.reset(x, y)
        incremental.begin_trial()
        incremental.delta_toggle_replicas([0], [1])
        incremental.commit()
        _assert_state_matches_dense(incremental, evaluator)

    def test_trial_misuse_raises(self):
        coefficients = _coefficients(0, WriteAccounting.ALL_ATTRIBUTES, 1.0)
        incremental = IncrementalEvaluator(coefficients, 2)
        with pytest.raises(SolverError):
            incremental.begin_trial()  # before reset
        x, y = random_feasible_solution(coefficients, 2, 0)
        incremental.reset(x, y)
        with pytest.raises(SolverError):
            incremental.commit()
        with pytest.raises(SolverError):
            incremental.rollback()
        incremental.begin_trial()
        with pytest.raises(SolverError):
            incremental.begin_trial()

    def test_reset_rejects_unplaced_transactions(self):
        coefficients = _coefficients(0, WriteAccounting.ALL_ATTRIBUTES, 1.0)
        incremental = IncrementalEvaluator(coefficients, 2)
        x, y = random_feasible_solution(coefficients, 2, 0)
        x[0, :] = False
        with pytest.raises(InstanceError):
            incremental.reset(x, y)

    def test_reset_does_not_alias_caller_arrays(self):
        """Regression: mutating the evaluator must never write through
        to the arrays the caller passed to reset."""
        coefficients = _coefficients(1, WriteAccounting.ALL_ATTRIBUTES, 1.0)
        incremental = IncrementalEvaluator(coefficients, 2)
        x, y = random_feasible_solution(coefficients, 2, 1)
        y_before = y.copy()
        incremental.reset(x, y)
        incremental.delta_toggle_replicas(
            np.arange(coefficients.num_attributes), np.zeros(coefficients.num_attributes, dtype=int)
        )
        np.testing.assert_array_equal(y, y_before)


class TestAnnealerEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    @pytest.mark.parametrize("disjoint", [False, True])
    def test_sa_results_match_dense_path(self, mode, lam, disjoint, monkeypatch):
        """Fixed seeds: the annealer returns the same best cost with
        the incremental evaluator and with the dense reference state."""
        for seed in range(3):
            instance = small_random_instance(seed)
            coefficients = build_coefficients(
                instance,
                CostParameters(write_accounting=mode, load_balance_lambda=lam),
            )
            costs = {}
            for state in (IncrementalEvaluator, DenseState):
                monkeypatch.setattr(
                    "repro.sa.annealer.IncrementalEvaluator", state
                )
                annealer = SimulatedAnnealer(
                    coefficients,
                    3,
                    SaOptions(
                        inner_loops=6,
                        max_outer_loops=6,
                        seed=seed,
                        disjoint=disjoint,
                    ),
                )
                x, y, cost = annealer.run()
                assert check_solution_feasible(coefficients, x, y)
                costs[state] = cost
            assert costs[IncrementalEvaluator] == pytest.approx(
                costs[DenseState], rel=1e-9, abs=1e-6
            )
