"""Exact classes: the QP over fused attributes and transactions keeps
the optimum."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.api import Advisor, SolveRequest
from repro.calibration import observation_from_report
from repro.costmodel.coefficients import (
    attach_migration,
    build_coefficients,
    read_sharing_components,
)
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
from repro.instances import tpcc_instance
from repro.instances.library import named_instance
from repro.model.instance import ProblemInstance
from repro.model.schema import SchemaBuilder
from repro.model.workload import Query, Transaction, Workload
from repro.partition.assignment import PartitioningResult
from repro.partition.current_layout import CurrentLayout
from repro.qp.linearize import build_linearized_model
from repro.qp.reduce import model_classes, reduce_coefficients
from repro.qp.solver import QpPartitioner
from repro.solver.solution import SolutionStatus
from tests.conftest import random_feasible_solution, small_random_instance


def _objective7(coefficients, x, y, latency: bool) -> float:
    """Model (7)'s objective of ``(x, y)``: objective (6) plus the
    Appendix-A term when the model prices latency."""
    evaluator = SolutionEvaluator(coefficients)
    value = evaluator.objective6(x, y)
    if latency:
        lam = coefficients.parameters.load_balance_lambda
        value += lam * evaluator.latency(x, y)
    return value


def attribute_classes(coefficients, allow_replication: bool):
    return model_classes(coefficients, allow_replication)[1]


def _first_merged_class(classes: np.ndarray) -> np.ndarray:
    """The members of the first class with more than one attribute."""
    return np.flatnonzero(classes == np.flatnonzero(np.bincount(classes) > 1)[0])


# ----------------------------------------------------------------------
# lambda < 1: a co-access group may split its sites to balance load
# ----------------------------------------------------------------------
def _split_pair_instance() -> ProblemInstance:
    """One transaction writes two attributes of one table; nobody reads
    them, so they form a co-access group that nothing pins."""
    schema = SchemaBuilder("split").table("T", a=1, b=1).build()
    workload = Workload(
        [Transaction("W", (Query.write("W.update", ["T.a", "T.b"]),))],
        name="split-load",
    )
    return ProblemInstance(schema, workload, name="split")


def _brute_force(coefficients, num_sites: int, together: bool = False):
    """Minimum objective (6) over every feasible ``(x, y)``; with
    ``together`` only layouts giving both attributes the same sites."""
    evaluator = SolutionEvaluator(coefficients)
    rows = [
        np.array(bits, dtype=bool)
        for bits in itertools.product((False, True), repeat=num_sites)
        if any(bits)
    ]
    best = np.inf
    num_transactions = coefficients.num_transactions
    for homes in itertools.product(range(num_sites), repeat=num_transactions):
        x = np.zeros((num_transactions, num_sites), dtype=bool)
        x[np.arange(num_transactions), homes] = True
        for y_rows in itertools.product(rows, repeat=coefficients.num_attributes):
            y = np.array(y_rows)
            if together and not (y == y[0]).all():
                continue
            if check_solution_feasible(coefficients, x, y):
                best = min(best, evaluator.objective6(x, y))
    return best


def test_unpinned_pair_splits_under_load_balance():
    instance = _split_pair_instance()
    balanced = build_coefficients(
        instance, CostParameters(load_balance_lambda=0.1)
    )
    # Splitting the pair strictly beats any layout that keeps it together.
    optimum = _brute_force(balanced, 2)
    assert optimum < _brute_force(balanced, 2, together=True) - 1e-9
    assert attribute_classes(balanced, allow_replication=True) is None
    result = QpPartitioner(balanced, 2).solve(gap=1e-9)
    value = SolutionEvaluator(balanced).objective6(result.x, result.y)
    assert value == pytest.approx(optimum, rel=1e-9)
    # At lambda = 1 no balance is bought, and the pair merges.
    cost_only = build_coefficients(
        instance, CostParameters(load_balance_lambda=1.0)
    )
    np.testing.assert_array_equal(
        attribute_classes(cost_only, allow_replication=True), [0, 0]
    )


def test_rebate_rule_applies_only_with_replication():
    """An attribute whose extra replica could lower the cost is not
    pinned when replication is allowed; a disjoint model still merges it."""
    coefficients = build_coefficients(
        tpcc_instance(), CostParameters(load_balance_lambda=0.5)
    )
    members = _first_merged_class(
        attribute_classes(coefficients, allow_replication=True)
    )
    c2 = coefficients.c2.copy()
    c2[members] = -1.0 - np.maximum(coefficients.c1[members], 0.0).sum(axis=1)
    rebated = dataclasses.replace(coefficients, c2=c2)
    replicated = attribute_classes(rebated, allow_replication=True)
    assert np.unique(replicated[members]).size == members.size
    disjoint = attribute_classes(rebated, allow_replication=False)
    assert np.unique(disjoint[members]).size == 1


# ----------------------------------------------------------------------
# Exactness: the reduced and unreduced optima agree everywhere
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "lam,replicated,layout,latency",
    list(itertools.product(
        (0.1, 0.5, 0.9, 1.0), (True, False), (False, True), (False, True)
    )),
)
def test_classes_keep_the_optimum(lam, replicated, layout, latency):
    merged = 0
    for seed in range(3):
        instance = small_random_instance(seed, max_attribute_refs_per_query=8)
        coefficients = build_coefficients(instance, CostParameters(
            load_balance_lambda=lam, latency_penalty=50.0 if latency else 0.0,
        ))
        for sites in (2,) if replicated else (2, 3):
            y0 = (random_feasible_solution(coefficients, sites, seed)[1]
                  if layout else None)
            merged += _check_reduced_optimum(
                coefficients, sites, replicated, latency, y0=y0
            )
    assert merged  # the cross is not vacuous: some instance reduces


def _check_reduced_optimum(
    coefficients, sites: int, replicated: bool, latency: bool = False,
    y0: np.ndarray | None = None,
) -> bool:
    """Solve over classes and unreduced at ``gap=1e-9``, with the
    current layout ``y0`` if given: the optima agree, the answer is
    feasible, and a disjoint model has one ``x`` row per read-sharing
    component.  True when anything was fused."""
    if y0 is not None:
        coefficients = attach_migration(
            coefficients, CurrentLayout.from_matrix(coefficients.instance, y0),
            0.5, sites,
        )
    options = dict(allow_replication=replicated, latency=latency)
    reference = build_linearized_model(
        coefficients, sites, **options
    ).model.solve(gap=1e-9)
    partitioner = QpPartitioner(coefficients, sites, **options)
    result = partitioner.solve(gap=1e-9)
    assert reference.status is SolutionStatus.OPTIMAL
    assert result.proven_optimal
    assert check_solution_feasible(coefficients, result.x, result.y)
    assert replicated or result.is_disjoint
    assert _objective7(
        coefficients, result.x, result.y, latency
    ) == pytest.approx(reference.objective, rel=1e-8)
    solved = partitioner.linearized.coefficients
    if replicated:
        assert partitioner.transaction_classes is None
    else:
        components = read_sharing_components(coefficients)
        assert partitioner.linearized.x_columns.shape[0] == components.max() + 1
        assert result.metadata["transaction_classes"] == components.max() + 1
    if partitioner.classes is None and partitioner.transaction_classes is None:
        assert solved is coefficients
        return False
    with pytest.raises(AttributeError, match="no W"):
        solved.weights
    return True


def _write_only_instance() -> ProblemInstance:
    """``Log`` reads nothing, so it is a component of its own; the two
    readers share ``T.k``."""
    schema = (
        SchemaBuilder("lonely")
        .table("T", k=4, v=8, w=16)
        .table("L", entry=32)
        .build()
    )
    workload = Workload([
        Transaction("A", (
            Query.read("A.get", ["T.k", "T.v"]),
            Query.write("A.put", ["T.w"]),
        )),
        Transaction("B", (Query.read("B.get", ["T.k", "T.w"]),)),
        Transaction("Log", (Query.write("Log.append", ["L.entry"]),)),
    ], name="lonely")
    return ProblemInstance(schema, workload, name="lonely")


@pytest.mark.parametrize("lam", (0.5, 1.0))
@pytest.mark.parametrize("sites", (2, 3))
def test_disjoint_components_keep_the_optimum(lam, sites):
    """A transaction that reads nothing is a singleton component; on
    tpcc one component spans every transaction.  A layout with every
    attribute on the last site makes sites unequal."""
    lonely = build_coefficients(_write_only_instance(), CostParameters(
        load_balance_lambda=lam, latency_penalty=50.0,
    ))
    np.testing.assert_array_equal(read_sharing_components(lonely), [0, 0, 1])
    tpcc = build_coefficients(
        tpcc_instance(), CostParameters(load_balance_lambda=lam)
    )
    np.testing.assert_array_equal(
        read_sharing_components(tpcc), np.zeros(tpcc.num_transactions)
    )
    for coefficients in (lonely, tpcc):
        last = np.zeros((coefficients.num_attributes, sites), dtype=bool)
        last[:, -1] = True
        for y0 in (None, random_feasible_solution(coefficients, sites, 0)[1], last):
            assert _check_reduced_optimum(
                coefficients, sites, replicated=False,
                latency=coefficients is lonely, y0=y0,
            )


@pytest.mark.parametrize("replicated", (True, False))
def test_layout_turns_symmetry_breaking_off(replicated):
    """A current layout prices each site differently, so pinning
    transaction ``t`` to sites ``0..t`` would cut off the optimum: with
    every tpcc attribute on site 2, the default solve must reach the
    optimum of the model without symmetry rows."""
    coefficients = build_coefficients(
        tpcc_instance(), CostParameters(load_balance_lambda=1.0)
    )
    last = np.zeros((coefficients.num_attributes, 3), dtype=bool)
    last[:, 2] = True
    coefficients = attach_migration(
        coefficients, CurrentLayout.from_matrix(coefficients.instance, last),
        1.0, 3,
    )
    options = dict(allow_replication=replicated)
    default = QpPartitioner(coefficients, 3, **options).solve(gap=1e-9)
    unbroken = QpPartitioner(
        coefficients, 3, symmetry_breaking=False, **options
    ).solve(gap=1e-9)
    assert default.proven_optimal and unbroken.proven_optimal
    assert default.objective == pytest.approx(unbroken.objective, rel=1e-9)
    assert default.objective == (37132.0 if replicated else 49703.0)
    assert QpPartitioner.estimate_model_size(
        coefficients, 3, **options
    ) == QpPartitioner.estimate_model_size(
        coefficients, 3, symmetry_breaking=False, **options
    )


def test_kept_warm_start_may_split_a_class():
    """A chain's warm start is priced on the original attributes, so
    it may give members of one class different sites."""
    instance = tpcc_instance()
    cheapest = QpPartitioner(
        build_coefficients(instance, CostParameters(load_balance_lambda=1.0)), 2
    ).solve(gap=1e-9)
    balanced = build_coefficients(
        instance, CostParameters(load_balance_lambda=0.1)
    )
    partitioner = QpPartitioner(balanced, 2)
    members = _first_merged_class(partitioner.classes)
    y = cheapest.y.copy()
    member, site = members[0], int(np.flatnonzero(~y[members[0]])[0])
    y[member, site] = True
    assert not (y[members] == y[member]).all()  # the class is split
    warm = PartitioningResult(
        coefficients=balanced, x=cheapest.x, y=y,
        objective=SolutionEvaluator(balanced).objective4(cheapest.x, y),
        solver="split",
    )
    result = partitioner.solve(gap=1e-9, warm_start=warm)
    assert result.metadata["warm_start_kept"] is True
    np.testing.assert_array_equal(result.y, y)
    value = SolutionEvaluator(balanced).objective6(warm.x, warm.y)
    bound = result.metadata["mip_bound"]
    assert result.metadata["mip_gap"] == pytest.approx(
        abs(value - bound) / max(1.0, abs(value))
    )


# ----------------------------------------------------------------------
# Routing and calibration see the unreduced model; metadata the solved one
# ----------------------------------------------------------------------
def test_auto_routing_counts_the_unreduced_model():
    instance = named_instance("rndAt32x100", seed=20)
    report = Advisor().advise(SolveRequest(
        instance, 4, strategy="auto", seed=0,
        options={"inner_loops": 2, "max_outer_loops": 2, "patience": 1},
    ))
    assert report.strategy == "sa"
    assert report.metadata["auto_model_variables"] == 24233
    assert QpPartitioner.estimate_model_size(
        report.result.coefficients, 4
    )["variables"] == 24233


def test_qp_metadata_describes_the_solved_model():
    report = Advisor().advise(SolveRequest(
        tpcc_instance(), 2, strategy="qp",
        parameters=CostParameters(load_balance_lambda=1.0),
    ))
    metadata = report.metadata
    coefficients = report.result.coefficients
    classes = attribute_classes(coefficients, allow_replication=True)
    solved = build_linearized_model(
        reduce_coefficients(coefficients, classes), 2
    ).model
    assert metadata["attribute_classes"] == 37
    assert metadata["variables"] == solved.num_variables
    assert metadata["constraints"] == solved.num_constraints
    unreduced = QpPartitioner.estimate_model_size(coefficients, 2)["variables"]
    assert metadata["unreduced_variables"] == unreduced > solved.num_variables
    assert observation_from_report(report).variables == unreduced
