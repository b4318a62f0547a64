"""End-to-end integration tests crossing every module boundary.

Each test walks a realistic user journey: SQL text -> instance ->
solver -> layout -> simulator -> trace -> re-estimated instance, and
checks the pieces agree with each other.
"""

import json

import pytest

from repro import (
    CostParameters,
    QueryEvent,
    build_coefficients,
    dump_instance,
    load_instance,
    reestimate_instance,
    render_layout,
    single_site_partitioning,
    solve_qp,
    solve_sa,
)
from repro.costmodel.evaluator import SolutionEvaluator
from repro.qp.linearize import build_linearized_model
from repro.simulator import WorkloadSimulator
from repro.sqlio import load_instance_from_sql

SCHEMA_SQL = """
CREATE TABLE products (
    id INT, name VARCHAR(40), description VARCHAR(400),
    price DECIMAL(10,2), stock INT
);
CREATE TABLE carts (
    id INT, product_id INT, quantity INT, added TIMESTAMP
);
"""

WORKLOAD_SQL = """
-- transaction Browse
-- name list rows products=20 freq 60
SELECT id, name, price FROM products WHERE price < ?;
-- name detail freq 30
SELECT id, name, description, price, stock FROM products WHERE id = ?;

-- transaction AddToCart
-- name insert freq 10
INSERT INTO carts (id, product_id, quantity, added) VALUES (?, ?, ?, ?);
-- name reserve freq 10
UPDATE products SET stock = stock - ? WHERE id = ?;
"""


@pytest.fixture(scope="module")
def instance():
    return load_instance_from_sql(SCHEMA_SQL, WORKLOAD_SQL, name="webshop")


def test_sql_to_solver_to_simulator_round_trip(instance):
    """SQL in, byte-exact simulated partitioning out."""
    parameters = CostParameters()
    result = solve_qp(instance, 2, parameters=parameters, time_limit=20)
    report = WorkloadSimulator(result).run()
    assert report.objective() == pytest.approx(result.objective)
    # The layout can be rendered and mentions both transactions.
    text = render_layout(result)
    assert "Browse" in text and "AddToCart" in text


def test_serialisation_preserves_solver_results(instance, tmp_path):
    """Dump/load the instance; the optimum must be identical."""
    path = tmp_path / "webshop.json"
    dump_instance(instance, path)
    reloaded = load_instance(path)
    parameters = CostParameters(load_balance_lambda=1.0)
    original = solve_qp(instance, 2, parameters=parameters, gap=1e-9)
    rebuilt = solve_qp(reloaded, 2, parameters=parameters, gap=1e-9)
    assert original.objective == pytest.approx(rebuilt.objective)


def test_grouping_commutes_with_sql_loading(instance):
    """The QP over the attribute classes of an SQL-loaded instance finds
    the optimum of a direct solve of the unreduced model (7)."""
    parameters = CostParameters(load_balance_lambda=1.0)
    reference = build_linearized_model(
        build_coefficients(instance, parameters), 2
    ).model.solve(gap=1e-9)
    grouped = solve_qp(instance, 2, parameters=parameters, gap=1e-9)
    assert grouped.metadata["attribute_classes"] < instance.num_attributes
    assert grouped.objective == pytest.approx(reference.objective, rel=1e-9)


def test_trace_reestimation_changes_costs(instance):
    """A trace with a different mix must change the modelled cost."""
    events = []
    for _ in range(100):
        events.append(QueryEvent("Browse.detail", {"products": 1}))
    for _ in range(2):
        events.append(QueryEvent("Browse.list", {"products": 5}))
    traced = reestimate_instance(instance, events)
    before = build_coefficients(instance, CostParameters())
    after = build_coefficients(traced, CostParameters())
    assert single_site_partitioning(before).objective != pytest.approx(
        single_site_partitioning(after).objective
    )
    # The re-estimated instance still solves and simulates exactly.
    result = solve_sa(traced, 2, seed=0)
    report = WorkloadSimulator(result).run()
    assert report.objective() == pytest.approx(result.objective)


def test_sa_and_qp_agree_on_blended_objective_ordering(instance):
    parameters = CostParameters()
    coefficients = build_coefficients(instance, parameters)
    evaluator = SolutionEvaluator(coefficients)
    qp = solve_qp(instance, 2, parameters=parameters, time_limit=20)
    sa = solve_sa(instance, 2, parameters=parameters, seed=3)
    assert evaluator.objective6(qp.x, qp.y) <= (
        evaluator.objective6(sa.x, sa.y) + 1e-6
    )


def test_layout_summary_loads_match_evaluator(instance):
    result = solve_qp(instance, 3, time_limit=20)
    evaluator = SolutionEvaluator(result.coefficients)
    loads = evaluator.site_loads(result.x, result.y)
    breakdown = result.breakdown()
    assert breakdown.max_load == pytest.approx(float(loads.max()))
    assert sum(breakdown.site_loads) == pytest.approx(
        breakdown.local_access
    )
