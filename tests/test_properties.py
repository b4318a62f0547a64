"""Cross-cutting invariants of the whole system (property-based).

These encode the qualitative claims of the paper as testable laws:

* replication never hurts (the blended optimum),
* more sites never hurt (pure cost, exact solver),
* local placement (p=0) is never costlier than remote (p>0),
* the QP lower-bounds SA and all baselines,
* the paper's |S|=1 identity: all transfer terms cancel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.partition.assignment import single_site_partitioning
from repro.qp.solver import QpPartitioner
from repro.sa.options import SaOptions
from repro.sa.solver import SaPartitioner
from tests.conftest import random_feasible_solution, small_random_instance

PURE_COST = CostParameters(load_balance_lambda=1.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_replication_never_hurts_pure_cost(seed):
    """Objective (4) optimum with replication <= without (lambda = 1)."""
    instance = small_random_instance(seed)
    coefficients = build_coefficients(instance, PURE_COST)
    replicated = QpPartitioner(coefficients, 2).solve(gap=1e-9)
    disjoint = QpPartitioner(coefficients, 2, allow_replication=False).solve(gap=1e-9)
    assert replicated.objective <= disjoint.objective + 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_more_sites_never_hurt_pure_cost(seed):
    """With lambda = 1, adding a site cannot worsen the optimum (the
    extra site may simply stay unused)."""
    instance = small_random_instance(seed, num_transactions=3)
    coefficients = build_coefficients(instance, PURE_COST)
    costs = [
        QpPartitioner(coefficients, sites).solve(gap=1e-9).objective
        for sites in (1, 2, 3)
    ]
    assert costs[1] <= costs[0] + 1e-6
    assert costs[2] <= costs[1] + 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_local_placement_never_costlier(seed):
    """p = 0 removes the transfer term, so the optimum can only drop."""
    instance = small_random_instance(seed)
    remote = QpPartitioner(
        build_coefficients(instance, PURE_COST), 2
    ).solve(gap=1e-9)
    local = QpPartitioner(
        build_coefficients(instance, PURE_COST.with_local_placement()), 2
    ).solve(gap=1e-9)
    assert local.objective <= remote.objective + 1e-6


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_qp_lower_bounds_sa(seed):
    """The exact solver is never beaten on the blended objective."""
    instance = small_random_instance(seed)
    coefficients = build_coefficients(instance, CostParameters())
    evaluator = SolutionEvaluator(coefficients)
    qp = QpPartitioner(coefficients, 2).solve(gap=1e-9)
    sa = SaPartitioner(
        coefficients, 2, options=SaOptions(inner_loops=6, max_outer_loops=8, seed=seed)
    ).solve()
    assert evaluator.objective6(qp.x, qp.y) <= (
        evaluator.objective6(sa.x, sa.y) + 1e-6
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    penalty=st.sampled_from([0.0, 3.0, 8.0, 128.0]),
)
def test_single_site_cost_independent_of_penalty(seed, penalty):
    """At |S| = 1 every transfer term cancels: the cost must not depend
    on p (the paper relies on this in Table 6's S=1 row)."""
    instance = small_random_instance(seed)
    with_penalty = single_site_partitioning(
        build_coefficients(instance, CostParameters(network_penalty=penalty))
    )
    without = single_site_partitioning(
        build_coefficients(instance, CostParameters(network_penalty=0.0))
    )
    assert with_penalty.objective == pytest.approx(without.objective)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_objective4_monotone_in_penalty(seed):
    """For a FIXED solution, objective (4) is non-decreasing in p."""
    instance = small_random_instance(seed)
    low = build_coefficients(instance, CostParameters(network_penalty=1.0))
    high = build_coefficients(instance, CostParameters(network_penalty=8.0))
    x, y = random_feasible_solution(low, 3, seed)
    assert SolutionEvaluator(high).objective4(x, y) >= (
        SolutionEvaluator(low).objective4(x, y) - 1e-9
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_adding_replicas_never_reduces_write_cost(seed):
    """Extending replication can only add write/transfer cost terms for
    a fixed x (this is what drives the SA's y-neighbourhood trade-off:
    replicas only pay off via co-location or load balance)."""
    instance = small_random_instance(seed)
    coefficients = build_coefficients(instance, CostParameters())
    evaluator = SolutionEvaluator(coefficients)
    x, y = random_feasible_solution(coefficients, 3, seed)
    rng = np.random.default_rng(seed)
    from repro.sa.neighborhood import extend_replication

    extended = extend_replication(y, rng, 0.3)
    base = evaluator.breakdown(x, y)
    more = evaluator.breakdown(x, extended)
    assert more.write_access >= base.write_access - 1e-9
    assert more.transfer >= base.transfer - 1e-9
    # Read access can also only grow: a new replica at a reader's home
    # site widens the fraction its row-store reads touch.
    assert more.read_access >= base.read_access - 1e-9
    assert more.objective4 >= base.objective4 - 1e-9


def test_paper_shape_rnd_classes_separate():
    """rndA-class instances must show a much larger cost-reduction
    potential than rndB-class ones (Table 3's central finding)."""
    from repro.instances.library import named_instance

    def reduction(name):
        instance = named_instance(name)
        coefficients = build_coefficients(instance, CostParameters())
        baseline = single_site_partitioning(coefficients).objective
        result = SaPartitioner(
            coefficients, 3,
            options=SaOptions(inner_loops=10, max_outer_loops=15, seed=0),
        ).solve()
        return 1.0 - result.objective / baseline

    assert reduction("rndAt8x15") > reduction("rndBt8x15") + 0.05
