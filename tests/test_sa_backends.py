"""Pluggable portfolio execution backends.

Pins the PR-5 acceptance contract: all backends return bitwise-identical
best results per master seed, and task envelopes round-trip and replay
byte-identically.
Envelope-level worker faults are pinned in ``tests/test_transport.py``.
"""

import json

import numpy as np
import pytest

from repro.api.advisor import advise
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.exceptions import OptionsError
from repro.sa.backends import (
    BackendRun,
    PortfolioPlan,
    QueueWorker,
    SerialBackend,
    backend_names,
    decode_restart_result,
    decode_restart_task,
    encode_restart_task,
    get_backend,
    register_backend,
)
from repro.sa.backends.base import RestartTask, _BACKENDS
from repro.sa.backends.envelope import ENVELOPE_FORMAT_VERSION
from repro.sa.options import SaOptions, usable_cores
from repro.sa.portfolio import derive_restart_seeds, run_portfolio
from repro.sa.solver import SaPartitioner
from repro.sa.transport import SocketTransportBackend
from tests.conftest import small_random_instance

FAST = dict(inner_loops=6, max_outer_loops=6)
#: The process backend on two forked workers.
PROCESS = dict(backend="process", jobs=2)


@pytest.fixture(scope="module")
def coefficients():
    instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
    return build_coefficients(instance, CostParameters())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_builtins_registered(self):
        assert backend_names() == ["process", "serial"]

    def test_get_backend_unknown_raises(self):
        with pytest.raises(OptionsError, match="unknown execution backend"):
            get_backend("carrier-pigeon")

    def test_options_validate_backend_name(self):
        with pytest.raises(OptionsError, match="unknown execution backend"):
            SaOptions(backend="carrier-pigeon")
        for retired in ("queue", "socket"):
            with pytest.raises(OptionsError, match="unknown execution"):
                SaOptions(backend=retired)
        assert SaOptions(backend="process").backend == "process"

    def test_retired_options_rejected_by_requests(self):
        instance = small_random_instance(5)
        for options in (
            {"backend": "queue"}, {"incremental": False}, {"prune": True},
            {"backend": "socket"}, {"workers": 0},
        ):
            with pytest.raises(
                OptionsError, match="queue|incremental|prune|socket|workers"
            ):
                advise(
                    SolveRequest(
                        instance, 2, strategy="sa-portfolio", seed=1,
                        options=options,
                    )
                )

    def test_register_backend_and_run(self, coefficients):
        class CountingSerial(SerialBackend):
            name = "counting"
            calls = 0

            def run(self, plan):
                CountingSerial.calls += 1
                run = super().run(plan)
                run.kind = "counting"
                return run

        register_backend("counting", CountingSerial)
        try:
            portfolio = run_portfolio(
                coefficients, 3,
                SaOptions(seed=1, restarts=2, backend="counting", **FAST),
            )
            assert portfolio.executor == "counting"
            assert CountingSerial.calls == 1
        finally:
            _BACKENDS.pop("counting", None)

    def test_register_rejects_bad_name(self):
        with pytest.raises(OptionsError, match="non-empty string"):
            register_backend("", SerialBackend)


# ----------------------------------------------------------------------
# Cross-backend determinism (the acceptance pin)
# ----------------------------------------------------------------------
class TestBackendParity:
    @pytest.fixture(scope="class")
    def per_backend(self, coefficients):
        """Serial, two forked workers, and the process backend's
        in-driver envelope loop (``workers=0``)."""
        options = SaOptions(seed=11, restarts=4, **FAST)
        return {
            "serial": run_portfolio(
                coefficients, 3, options, backend="serial"
            ),
            "process": run_portfolio(
                coefficients, 3,
                SaOptions(seed=11, restarts=4, **PROCESS, **FAST),
            ),
            "in-driver": run_portfolio(
                coefficients, 3, options,
                backend=SocketTransportBackend(workers=0),
            ),
        }

    def test_bitwise_identical_best(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "in-driver"):
            other = per_backend[backend]
            assert other.objective6 == serial.objective6
            assert other.best_restart == serial.best_restart
            np.testing.assert_array_equal(other.x, serial.x)
            np.testing.assert_array_equal(other.y, serial.y)

    def test_identical_per_restart_records(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "in-driver"):
            other = per_backend[backend]
            assert other.restart_objectives == serial.restart_objectives
            assert other.restart_seeds == serial.restart_seeds
            assert [o.iterations for o in other.outcomes] == [
                o.iterations for o in serial.outcomes
            ]

    def test_executor_label(self, per_backend):
        assert per_backend["serial"].executor == "serial"
        assert per_backend["process"].executor == "process"
        assert per_backend["in-driver"].executor == "process"

    def test_backend_routes_through_sa_partitioner(self, coefficients):
        result = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=11, restarts=2, **PROCESS, **FAST),
        ).solve()
        assert result.metadata["executor"] == "process"

    def test_explicit_backend_with_single_restart(self, coefficients):
        """backend= routes restarts=1 through the portfolio machinery."""
        single = SaPartitioner(
            coefficients, 3, options=SaOptions(seed=11, **FAST)
        ).solve()
        forked = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=11, **PROCESS, **FAST),
        ).solve()
        assert forked.metadata["executor"] == "process"
        assert forked.objective == single.objective
        np.testing.assert_array_equal(forked.x, single.x)
        np.testing.assert_array_equal(forked.y, single.y)

    def test_advise_accepts_backend_option(self):
        instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
        reports = {
            backend: advise(
                SolveRequest(
                    instance, 3, strategy="sa-portfolio", seed=11,
                    options={
                        "restarts": 3, "backend": backend, "jobs": 2, **FAST
                    },
                )
            )
            for backend in ("serial", "process")
        }
        serial, forked = reports["serial"].result, reports["process"].result
        assert forked.objective == serial.objective
        np.testing.assert_array_equal(forked.x, serial.x)
        assert forked.metadata["executor"] == "process"


class TestAutoBackendDisambiguation:
    """"backend" names a portfolio execution backend only: "auto" keeps
    it on an SA pick, drops it on a QP pick, and rejects any other value
    before picking."""

    def test_auto_qp_pick_drops_execution_backend(self):
        instance = small_random_instance(5)  # small: auto picks qp
        report = advise(
            SolveRequest(
                instance, 2, strategy="auto", seed=1,
                options={**PROCESS, "restarts": 2},
            )
        )
        assert report.result.metadata["auto_pick"] == "qp"

    @pytest.mark.parametrize("auto_cutoff", [1, 10**9], ids=["sa", "qp"])
    def test_auto_rejects_mip_backend_names(self, auto_cutoff):
        """The retired MIP backend spellings are no longer accepted."""
        instance = small_random_instance(5)
        with pytest.raises(OptionsError, match="not a portfolio"):
            advise(
                SolveRequest(
                    instance, 2, strategy="auto", seed=1,
                    options={"backend": "scipy", "auto_cutoff": auto_cutoff},
                )
            )

    def test_auto_sa_pick_keeps_execution_backend(self):
        instance = small_random_instance(5)
        report = advise(
            SolveRequest(
                instance, 2, strategy="auto", seed=1,
                options={**PROCESS, "auto_cutoff": 1, **FAST},
            )
        )
        assert report.result.metadata["auto_pick"] == "sa"
        assert report.result.metadata["executor"] == "process"

    def test_auto_sa_pick_rejects_unknown_backend(self):
        """A typo'd backend must raise, not silently fall back."""
        instance = small_random_instance(5)
        with pytest.raises(OptionsError, match="not a portfolio"):
            advise(
                SolveRequest(
                    instance, 2, strategy="auto", seed=1,
                    options={"backend": "qeue", "auto_cutoff": 1, **FAST},
                )
            )

    def test_auto_qp_pick_rejects_unknown_backend(self):
        """The QP road drops SA-only options, but a bad backend is
        checked before the pick, so it still raises there."""
        instance = small_random_instance(5)  # small: auto picks qp
        with pytest.raises(OptionsError, match="not a portfolio"):
            advise(
                SolveRequest(
                    instance, 2, strategy="auto", seed=1,
                    options={"backend": "bogus"},
                )
            )


# ----------------------------------------------------------------------
# Task envelopes
# ----------------------------------------------------------------------
class TestQueueEnvelopes:
    def test_task_envelope_round_trips(self, coefficients):
        options = SaOptions(seed=11, restarts=4, **FAST)
        envelope = encode_restart_task(
            coefficients, 3, options, RestartTask(restart=2, seed=77)
        )
        payload = decode_restart_task(envelope)
        assert payload["restart"] == 2
        assert payload["kind"] == "sa-restart"
        request = SolveRequest.from_dict(payload["request"])
        assert request.strategy == "sa"
        assert request.seed == 77
        assert request.options["restarts"] == 1  # single-run options
        assert request.options["jobs"] == 1
        # the request itself keeps its exact JSON round-trip
        assert SolveRequest.from_json(request.to_json()).to_dict() == request.to_dict()

    def test_task_envelope_bytes_stable(self, coefficients):
        options = SaOptions(seed=11, restarts=4, **FAST)
        first = encode_restart_task(coefficients, 3, options, RestartTask(1, 5))
        second = encode_restart_task(coefficients, 3, options, RestartTask(1, 5))
        assert first == second

    def test_replay_is_byte_identical(self, coefficients):
        options = SaOptions(seed=11, **FAST)
        envelope = encode_restart_task(
            coefficients, 3, options, RestartTask(restart=0, seed=11)
        )
        worker = QueueWorker()
        first = worker.run(envelope)
        second = worker.run(envelope)
        assert first == second
        payload = json.loads(first)
        assert payload["kind"] == "sa-restart-result"
        assert "wall_time" not in payload  # transport-dependent, not wire

    def test_result_matches_direct_run(self, coefficients):
        """Decoded envelope outcomes equal the in-process annealer's."""
        options = SaOptions(seed=11, **FAST)
        direct = SaPartitioner(coefficients, 3, options=options).solve()
        envelope = encode_restart_task(
            coefficients, 3, options, RestartTask(restart=0, seed=11)
        )
        outcome = decode_restart_result(QueueWorker().run(envelope))
        assert outcome.objective6 == direct.metadata["objective6"]
        np.testing.assert_array_equal(outcome.x, direct.x)
        np.testing.assert_array_equal(outcome.y, direct.y)
        assert outcome.iterations == direct.metadata["iterations"]

    def test_queue_rejects_non_canonical_coefficients(self, coefficients):
        """Task envelopes ship (instance, parameters) only; the in-driver
        envelope loop must refuse edited coefficient arrays, not
        silently re-derive them."""
        import dataclasses

        doctored = dataclasses.replace(coefficients, c1=coefficients.c1 * 2.0)
        with pytest.raises(OptionsError, match="non-canonical"):
            run_portfolio(
                doctored, 3,
                SaOptions(seed=1, restarts=2, **FAST),
                backend=SocketTransportBackend(workers=0),
            )

    def test_task_version_and_kind_checked(self, coefficients):
        options = SaOptions(seed=1, **FAST)
        envelope = encode_restart_task(
            coefficients, 2, options, RestartTask(0, 1)
        )
        payload = json.loads(envelope)
        # Versions 4 and 5 are the last formats whose options still
        # carry ``prune`` and ``workers``: they must be refused by their
        # stamp, not reach the SaOptions constructor inside a worker.
        for version, retired in (
            (99, "workers"), (4, "prune"), (5, "workers")
        ):
            stale = json.loads(envelope)
            stale["format_version"] = version
            stale["request"]["options"][retired] = None
            for decode in (decode_restart_task, QueueWorker().run):
                with pytest.raises(OptionsError, match="format_version"):
                    decode(json.dumps(stale))
        payload["kind"] = "sa-restart-result"
        with pytest.raises(OptionsError, match="kind"):
            decode_restart_task(json.dumps(payload))
        with pytest.raises(OptionsError, match="kind"):
            decode_restart_result(envelope)
        # the result leg enforces the version stamp too
        result = QueueWorker().run(envelope)
        tampered = json.loads(result)
        tampered["format_version"] = 99
        with pytest.raises(OptionsError, match="format_version"):
            decode_restart_result(json.dumps(tampered))


# ----------------------------------------------------------------------
# Retry budget
# ----------------------------------------------------------------------
class TestQueueFaults:
    """The retry budget of the envelope backends; the fault paths
    themselves are pinned in ``tests/test_transport.py``."""

    def test_negative_max_retries_rejected_at_construction(self):
        """A negative or non-integer budget is a misconfiguration, not
        'never retry' — it fails eagerly, before any solve starts."""
        for bad in (-1, True, 1.5):
            with pytest.raises(OptionsError, match="max_retries"):
                SaOptions(max_retries=bad)
        # 0 is legal and means: failed restarts are never retried.
        assert SaOptions(max_retries=0).max_retries == 0


# ----------------------------------------------------------------------
# Plan plumbing
# ----------------------------------------------------------------------
class TestPortfolioPlan:
    def test_tasks_enumerate_seeds(self, coefficients):
        seeds = derive_restart_seeds(7, 3)
        plan = PortfolioPlan(
            coefficients=coefficients, num_sites=2,
            options=SaOptions(seed=7, restarts=3, **FAST), seeds=seeds,
        )
        tasks = plan.tasks()
        assert [task.restart for task in tasks] == [0, 1, 2]
        assert [task.seed for task in tasks] == seeds
        assert plan.jobs == min(usable_cores(), 3)
        assert plan.remaining() is None
        assert not plan.expired()

    def test_backend_run_defaults(self):
        run = BackendRun(outcomes=[])
        assert (run.cancelled, run.kind) == (0, "serial")
