"""Pluggable portfolio execution backends.

Pins the PR-5 acceptance contract: all backends return bitwise-identical
best results per master seed, and task envelopes round-trip and replay
byte-identically.
Envelope-level worker faults are pinned in ``tests/test_transport.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.api.advisor import advise
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.exceptions import OptionsError, SolverError
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
from repro.sa.backends.queue import ENVELOPE_FORMAT_VERSION
from repro.sa.options import SaOptions
from repro.sa.portfolio import derive_restart_seeds, run_portfolio
from repro.sa.solver import SaPartitioner
from tests.conftest import small_random_instance

FAST = dict(inner_loops=6, max_outer_loops=6)
#: The socket backend's in-driver loop: task envelopes through a
#: ``QueueWorker`` in this process, no worker processes spawned.
IN_DRIVER = dict(backend="socket", workers=0)


@pytest.fixture(scope="module")
def coefficients():
    instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
    return build_coefficients(instance, CostParameters())


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_builtins_registered(self):
        assert backend_names() == ["process", "serial", "socket", "thread"]

    def test_get_backend_unknown_raises(self):
        with pytest.raises(OptionsError, match="unknown execution backend"):
            get_backend("carrier-pigeon")

    def test_options_validate_backend_name(self):
        with pytest.raises(OptionsError, match="unknown execution backend"):
            SaOptions(backend="carrier-pigeon")
        with pytest.raises(OptionsError, match="unknown execution backend"):
            SaOptions(backend="queue")
        assert SaOptions(backend="socket").backend == "socket"

    def test_retired_options_rejected_by_requests(self):
        instance = small_random_instance(5)
        for options in (
            {"backend": "queue"}, {"incremental": False}, {"prune": True}
        ):
            with pytest.raises(OptionsError, match="queue|incremental|prune"):
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
        results = {}
        for backend, jobs in (("serial", 1), ("process", 2), ("socket", 1)):
            results[backend] = run_portfolio(
                coefficients, 3,
                SaOptions(
                    seed=11, restarts=4, jobs=jobs, backend=backend,
                    workers=0, **FAST,
                ),
            )
        return results

    def test_bitwise_identical_best(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "socket"):
            other = per_backend[backend]
            assert other.objective6 == serial.objective6
            assert other.best_restart == serial.best_restart
            np.testing.assert_array_equal(other.x, serial.x)
            np.testing.assert_array_equal(other.y, serial.y)

    def test_identical_per_restart_records(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "socket"):
            other = per_backend[backend]
            assert other.restart_objectives == serial.restart_objectives
            assert other.restart_seeds == serial.restart_seeds
            assert [o.iterations for o in other.outcomes] == [
                o.iterations for o in serial.outcomes
            ]

    def test_executor_label(self, per_backend):
        assert per_backend["serial"].executor == "serial"
        assert per_backend["socket"].executor == "socket"
        # the pool may legitimately fall back to threads on exotic
        # platforms; on CI/linux it is the process pool.
        assert per_backend["process"].executor in ("process", "thread")

    def test_backend_routes_through_sa_partitioner(self, coefficients):
        result = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=11, restarts=2, **IN_DRIVER, **FAST),
        ).solve()
        assert result.metadata["executor"] == "socket"

    def test_explicit_backend_with_single_restart(self, coefficients):
        """backend= routes restarts=1 through the portfolio machinery."""
        single = SaPartitioner(
            coefficients, 3, options=SaOptions(seed=11, **FAST)
        ).solve()
        socket = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=11, **IN_DRIVER, **FAST),
        ).solve()
        assert socket.metadata["executor"] == "socket"
        assert socket.objective == single.objective
        np.testing.assert_array_equal(socket.x, single.x)
        np.testing.assert_array_equal(socket.y, single.y)

    def test_advise_accepts_backend_option(self):
        instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
        reports = {
            backend: advise(
                SolveRequest(
                    instance, 3, strategy="sa-portfolio", seed=11,
                    options={
                        "restarts": 3, "backend": backend, "workers": 0, **FAST
                    },
                )
            )
            for backend in ("serial", "socket")
        }
        serial, socket = reports["serial"].result, reports["socket"].result
        assert socket.objective == serial.objective
        np.testing.assert_array_equal(socket.x, serial.x)
        assert socket.metadata["executor"] == "socket"


class TestAutoBackendDisambiguation:
    """"backend" names a portfolio execution backend only: "auto" keeps
    it on an SA pick, drops it on a QP pick, and rejects any other value
    before picking."""

    def test_auto_qp_pick_drops_execution_backend(self):
        instance = small_random_instance(5)  # small: auto picks qp
        report = advise(
            SolveRequest(
                instance, 2, strategy="auto", seed=1,
                options={**IN_DRIVER, "restarts": 2},
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
                options={**IN_DRIVER, "auto_cutoff": 1, **FAST},
            )
        )
        assert report.result.metadata["auto_pick"] == "sa"
        assert report.result.metadata["executor"] == "socket"

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
        """The wire format ships (instance, parameters) only; edited
        coefficient arrays must be refused, not silently re-derived."""
        import dataclasses

        doctored = dataclasses.replace(coefficients, c1=coefficients.c1 * 2.0)
        with pytest.raises(OptionsError, match="non-canonical"):
            run_portfolio(
                doctored, 3,
                SaOptions(seed=1, restarts=2, **IN_DRIVER, **FAST),
            )

    def test_task_version_and_kind_checked(self, coefficients):
        options = SaOptions(seed=1, **FAST)
        envelope = encode_restart_task(
            coefficients, 2, options, RestartTask(0, 1)
        )
        payload = json.loads(envelope)
        # Version 4 is the last format whose options still carry
        # ``prune``: it must be refused by its stamp, not reach the
        # SaOptions constructor inside a worker.
        for version in (99, 4):
            stale = json.loads(envelope)
            stale["format_version"] = version
            stale["request"]["options"]["prune"] = False
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
# Pool worker death
# ----------------------------------------------------------------------
class TestPoolWorkerDeath:
    """A pool worker dying mid-restart must fail the solve loudly,
    naming the restart — there is no envelope to requeue, and a silently
    incomplete best-of-N would change the result."""

    def test_process_pool_worker_death_names_the_restart(
        self, coefficients, monkeypatch
    ):
        import multiprocessing

        from repro.sa.backends import pool

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("death injection relies on fork inheriting the patch")

        real_run_restart = pool.run_restart

        def dying(coeffs, num_sites, options, restart, seed, deadline):
            if restart == 1:
                os._exit(13)  # abrupt death: no exception, no cleanup
            return real_run_restart(
                coeffs, num_sites, options, restart, seed, deadline
            )

        monkeypatch.setattr(pool, "run_restart", dying)
        with pytest.raises(
            SolverError, match=r"process pool worker failed restart \d+"
        ):
            run_portfolio(
                coefficients, 3,
                SaOptions(seed=11, restarts=2, jobs=1, backend="process", **FAST),
            )

    def test_thread_pool_worker_failure_names_the_restart(
        self, coefficients, monkeypatch
    ):
        from repro.sa.backends import pool

        def raising(coeffs, num_sites, options, restart, seed, deadline):
            raise RuntimeError(f"injected death on restart {restart}")

        monkeypatch.setattr(pool, "run_restart", raising)
        with pytest.raises(
            SolverError, match="thread pool worker failed restart"
        ):
            run_portfolio(
                coefficients, 3,
                SaOptions(seed=11, restarts=2, jobs=2, backend="thread", **FAST),
            )


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
        assert plan.jobs == 1
        assert plan.remaining() is None
        assert not plan.expired()

    def test_backend_run_defaults(self):
        run = BackendRun(outcomes=[])
        assert (run.cancelled, run.kind) == (0, "serial")
