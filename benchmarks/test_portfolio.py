"""Benchmark evidence for the multi-start portfolio PR.

Three claims are pinned, the first two on ``rndAt64x100`` (the
Table-2/3 instance with ~1000 attributes the incremental-evaluator
benchmarks already use):

* a best-of-8 portfolio with ``jobs=4`` reaches a cost at least as good
  as the single-run incumbent (guaranteed: restart 0 reuses the master
  seed) in comparable wall-clock — well under the 8x a serial rerun of
  every restart would cost;
* the balance-aware (``lambda = 0.5``) sub-solves are >= 3x faster
  than the test-only reference loops with bitwise-equal layouts;
* assembling model (7) as arrays costs well under a tenth of solving
  it with HiGHS, so the MIP path's time goes to the solver.

Timing gates compare two measurements taken on the same box
(ratio-style, with a retry), so absolutely slow runners don't flake;
shared CI runners get relaxed thresholds.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.instances.library import named_instance
from repro.qp.linearize import build_linearized_model
from repro.sa.options import SaOptions, usable_cores
from repro.sa.portfolio import run_portfolio
from repro.sa.solver import SaPartitioner
from repro.sa.state import random_transaction_placement
from repro.sa.subsolve import SubproblemSolver
from repro.solver.scipy_backend import solve_mip_scipy
from tests.reference_subsolve import LoopSubproblemSolver

BALANCED = CostParameters(load_balance_lambda=0.5)

#: Long enough per restart that worker startup (a fork and a socket
#: pair per worker, which inherits the coefficients) amortises; short
#: enough to stay a test.
PORTFOLIO_OPTIONS = dict(inner_loops=40, max_outer_loops=12, patience=12)


@pytest.fixture(scope="module")
def large_coefficients():
    coefficients = build_coefficients(named_instance("rndAt64x100"), BALANCED)
    assert coefficients.num_attributes >= 200
    return coefficients


def test_portfolio_best_of_8_beats_single_run(large_coefficients):
    """Best-of-8 (jobs=4) <= single incumbent, in comparable wall-clock."""
    single_started = time.perf_counter()
    single = SaPartitioner(
        large_coefficients, 4, options=SaOptions(seed=7, **PORTFOLIO_OPTIONS)
    ).solve()
    single_wall = time.perf_counter() - single_started

    portfolio_started = time.perf_counter()
    portfolio = run_portfolio(
        large_coefficients, 4,
        SaOptions(seed=7, restarts=8, jobs=4, **PORTFOLIO_OPTIONS),
    )
    portfolio_wall = time.perf_counter() - portfolio_started

    print(
        f"\nrndAt64x100, |S|=4: single {single.metadata['objective6']:.0f} "
        f"in {single_wall:.2f}s; best-of-8 (jobs=4, {portfolio.executor}) "
        f"{portfolio.objective6:.0f} in {portfolio_wall:.2f}s "
        f"(winner: restart {portfolio.best_restart})"
    )
    # Guaranteed: restart 0 replays the master seed, so best-of-8 can
    # only improve on the single run.
    assert portfolio.objective6 <= single.metadata["objective6"] + 1e-9
    assert len(portfolio.outcomes) == 8
    if os.environ.get("CI"):
        return  # report wall-clock, don't gate on shared-runner cores
    # "Comparable wall-clock" scaled to the hardware: 8 restarts over
    # min(jobs, cores) effective workers, with 2x scheduling slack and a
    # flat allowance for worker startup (a fork and a handshake per
    # worker).
    # On a 4+-core box this demands real concurrency (~2x single + eps);
    # on a 1-core box it still caps portfolio overhead near-serial.
    effective_workers = max(1, min(4, usable_cores()))
    budget = (8 / effective_workers) * single_wall * 2.0 + 2.0
    assert portfolio_wall <= budget, (
        f"portfolio {portfolio_wall:.2f}s > budget {budget:.2f}s "
        f"({effective_workers} effective workers)"
    )


def test_portfolio_deterministic_across_worker_counts(large_coefficients):
    """jobs=1 and jobs=4 agree bit for bit on the large instance too."""
    results = [
        run_portfolio(
            large_coefficients, 4,
            SaOptions(seed=3, restarts=4, jobs=jobs, inner_loops=5,
                      max_outer_loops=3),
        )
        for jobs in (1, 4)
    ]
    assert results[0].objective6 == results[1].objective6
    assert results[0].restart_objectives == results[1].restart_objectives
    np.testing.assert_array_equal(results[0].x, results[1].x)
    np.testing.assert_array_equal(results[0].y, results[1].y)


def _bench(function, rounds: int = 15) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


def test_balance_aware_subsolve_speedup(large_coefficients):
    """Lambda=0.5 placement >= 3x the reference loops, bitwise equal.

    Measures the placement stage on the precomputed-input path (what the
    annealer feeds from the incremental evaluator), so the shared dense
    matmuls don't dilute the comparison.
    """
    num_sites = 4
    fast = SubproblemSolver(large_coefficients, num_sites)
    loop = LoopSubproblemSolver(large_coefficients, num_sites)
    rng = np.random.default_rng(0)
    x = random_transaction_placement(
        large_coefficients.num_transactions, num_sites, rng
    )
    xs = x.astype(float)
    k = fast.lam * (large_coefficients.c1 @ xs + large_coefficients.c2[:, None])
    load_weight = large_coefficients.c3 @ xs + large_coefficients.c4[:, None]
    forced = fast.forced_y(x)
    y = fast.optimize_y_greedy(x, k=k, load_weight=load_weight, forced=forced)
    np.testing.assert_array_equal(
        y, loop.optimize_y_greedy(x, k=k, load_weight=load_weight, forced=forced)
    )
    ys = y.astype(float)
    cost = fast.lam * (large_coefficients.c1.T @ ys)
    read_load = large_coefficients.c3.T @ ys
    missing = fast.phi.T @ (1.0 - ys)
    static_load = large_coefficients.c4 @ ys
    np.testing.assert_array_equal(
        fast.optimize_x_greedy(
            y, cost=cost, read_load=read_load, missing=missing,
            static_load=static_load,
        ),
        loop.optimize_x_greedy(
            y, cost=cost, read_load=read_load, missing=missing,
            static_load=static_load,
        ),
    )

    threshold = 2.0 if os.environ.get("CI") else 3.0
    best_speedup = 0.0
    for _ in range(3):  # retry: absorb transient runner noise
        fast_time = _bench(
            lambda: (
                fast.optimize_y_greedy(
                    x, k=k, load_weight=load_weight, forced=forced
                ),
                fast.optimize_x_greedy(
                    y, cost=cost, read_load=read_load, missing=missing,
                    static_load=static_load,
                ),
            )
        )
        loop_time = _bench(
            lambda: (
                loop.optimize_y_greedy(
                    x, k=k, load_weight=load_weight, forced=forced
                ),
                loop.optimize_x_greedy(
                    y, cost=cost, read_load=read_load, missing=missing,
                    static_load=static_load,
                ),
            )
        )
        best_speedup = max(best_speedup, loop_time / fast_time)
        if best_speedup >= threshold:
            break
    print(
        f"\nlambda=0.5 sub-solves on rndAt64x100: loop {loop_time * 1e3:.2f}ms, "
        f"fast {fast_time * 1e3:.2f}ms, speedup {best_speedup:.1f}x"
    )
    assert best_speedup >= threshold


def test_model_assembly_small_next_to_highs():
    """Building model (7) and its solver arrays costs < 0.1x of solving
    it with HiGHS (rndAt16x100, disjoint, four sites)."""
    coefficients = build_coefficients(named_instance("rndAt16x100"), CostParameters())

    def assemble():
        return build_linearized_model(
            coefficients, 4, allow_replication=False
        ).model.to_standard_arrays()

    arrays = assemble()
    started = time.perf_counter()
    solution = solve_mip_scipy(arrays)
    highs_time = time.perf_counter() - started
    assert solution.status.has_solution
    assembly_time = _bench(assemble, rounds=3)
    ratio = assembly_time / highs_time
    print(
        f"\nmodel (7) on rndAt16x100 (disjoint, S=4): assembly "
        f"{assembly_time * 1e3:.1f}ms, HiGHS {highs_time * 1e3:.0f}ms, "
        f"ratio {ratio:.3f}"
    )
    assert ratio < 0.1
