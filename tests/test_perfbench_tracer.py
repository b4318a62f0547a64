"""The benchmark tracer's contract with the package it patches.

``perfbench/tracing.py`` wraps named classes, methods and module-level
functions of ``repro`` from outside the program.  A change that renames
or deletes one of them breaks the benchmark's per-layer figures without
failing anything else, so this test serves one small SA portfolio and
one QP solve under the tracer and checks that every wrapped layer was
recorded.
"""

from pathlib import Path

import pytest

from repro.api import Advisor, SolveRequest
from repro.instances.library import named_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Every layer both requests pass through, by the tracer's span name.
LAYERS = (
    "api",
    "coefficients",
    "portfolio",
    "anneal",
    "subsolve.y_greedy",
    "subsolve.x_greedy",
    "incremental",
    "evaluator",
    "linearize",
    "mip.to_arrays",
    "mip.highs",
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_records_every_layer(tracing):
    advisor = Advisor()
    instance = named_instance("tpcc")
    with tracing.Recorder() as recorder:
        advisor.advise(SolveRequest(
            instance=instance, num_sites=2, strategy="sa-portfolio", seed=0,
            # jobs=1: forked restarts would run outside the patches.
            options={"restarts": 2, "jobs": 1, "inner_loops": 4,
                     "max_outer_loops": 4},
        ))
        advisor.advise(SolveRequest(
            instance=instance, num_sites=2, strategy="qp",
        ))
    missing = [layer for layer in LAYERS if recorder.calls[layer] < 1]
    assert not missing, f"tracer recorded no calls for {missing}"
    assert recorder.calls["api"] == 2
    assert recorder.counters["portfolio.restarts"] == 2
    assert recorder.counters["portfolio.pruned"] == 0
