"""Documented solve contracts, each checked against a binding budget.

* A strategy chain never returns a worse answer than its earlier stages:
  the QP stage keeps a strictly better warm start, and returns it when
  the time limit leaves HiGHS with no integer solution.
* A ``time_limit`` bounds the wall time of a request, up to a bounded
  overshoot for model assembly and solver shutdown, for every SA
  execution backend as well.

The chain assertions do not depend on machine speed: whatever HiGHS
finds within its budget, the answer may only improve on the stage.
The budget test asserts a ratio to the budget, never absolute seconds.
"""

from __future__ import annotations

import pytest

from repro.api import SolveRequest, advise, default_registry
from repro.instances.library import named_instance
from repro.sa.options import SaOptions

NUM_SITES = 4

#: Stages left out of the ``X->qp`` chains: those that solve model (7)
#: themselves on this instance ("auto" routes it to qp), and
#: "single-site", which only serves ``num_sites=1``.
_NOT_WARM_START_STAGES = frozenset({"qp", "qp-heavy", "auto", "single-site"})

#: A QP budget far below what HiGHS needs to prove optimality here.
BINDING_QP_LIMIT = 0.5

#: The bound on ``wall_time / time_limit`` (measured 1.1-1.2 on a
#: 2-core x86 container).
BUDGET_OVERSHOOT = 1.5


@pytest.fixture(scope="module")
def instance():
    return named_instance("rndAt16x15", seed=20)


@pytest.fixture(scope="module")
def large_instance():
    """Large enough that sixteen unbudgeted restarts take several budgets."""
    return named_instance("rndAt64x100", seed=20)


def _warm_start_stages() -> list[str]:
    return sorted(set(default_registry().names()) - _NOT_WARM_START_STAGES)


def _assert_never_worse(report) -> None:
    (stage,) = report.stage_results
    assert report.objective <= stage.objective, (
        f"{report.strategy} returned {report.objective}, worse than its "
        f"first stage's {stage.objective} (metadata {report.metadata})"
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("stage", _warm_start_stages())
def test_chain_to_qp_never_worse_than_its_stage(instance, stage, seed):
    report = advise(SolveRequest(
        instance, NUM_SITES, strategy=f"{stage}->qp", seed=seed,
        options={"qp": {"time_limit": BINDING_QP_LIMIT}},
    ))
    _assert_never_worse(report)
    assert "warm_start_kept" in report.metadata


@pytest.mark.parametrize(
    "budget",
    [{"options": {"qp": {"time_limit": 3}}}, {"time_limit": 2}],
    ids=["qp-stage-limit", "request-limit"],
)
def test_portfolio_chain_regression_rndAt16x15_seed3(instance, budget):
    """The SA stage found 894,506 here while the chain returned the
    time-limited MIP incumbent, 1,030,330."""
    report = advise(SolveRequest(
        instance, NUM_SITES, strategy="sa-portfolio->qp", seed=3, **budget
    ))
    _assert_never_worse(report)


@pytest.mark.parametrize("strategy", ["qp", "auto", "sa-portfolio->qp"])
def test_time_limit_bounds_wall_time(instance, strategy):
    time_limit = 2.0
    report = advise(SolveRequest(
        instance, NUM_SITES, strategy=strategy, seed=3, time_limit=time_limit
    ))
    if strategy == "auto":
        assert report.metadata["auto_pick"] == "qp"
    ratio = report.wall_time / time_limit
    assert ratio < BUDGET_OVERSHOOT, (
        f"{strategy} took {ratio:.2f}x its time limit"
    )


@pytest.mark.parametrize("backend", ["serial", "process", None])
def test_time_limit_bounds_sa_backends(large_instance, backend):
    """``None`` sets neither ``backend`` nor ``jobs``: the default
    portfolio on the usable cores."""
    time_limit = 2.0
    options = {"restarts": 16}
    if backend is not None:
        options |= {"backend": backend, "jobs": 2}
    report = advise(SolveRequest(
        large_instance, NUM_SITES, strategy="sa-portfolio", seed=3,
        time_limit=time_limit, options=options,
    ))
    if backend is None:
        jobs = SaOptions(restarts=16).effective_jobs
        backend = "serial" if jobs == 1 else "process"
    assert report.metadata["executor"] == backend
    assert report.metadata["cancelled_restarts"] >= 1, "the budget must bind"
    ratio = report.wall_time / time_limit
    assert ratio < BUDGET_OVERSHOOT, (
        f"sa-portfolio on {backend} took {ratio:.2f}x its time limit"
    )
