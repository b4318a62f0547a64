"""Pluggable portfolio execution backends.

Pins the acceptance contract: all backends return bitwise-identical
best results per master seed, forked or in the driver.
Transport-level worker faults are pinned in ``tests/test_transport.py``.
"""

import dataclasses
import os

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
    SerialBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.sa.backends.base import _BACKENDS
from repro.sa.options import SaOptions, usable_cores
from repro.sa.portfolio import derive_restart_seeds, run_portfolio
from repro.sa.solver import SaPartitioner
from repro.sa import worker
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
            {"heartbeat_interval": 0.5},
        ):
            with pytest.raises(
                OptionsError,
                match="queue|incremental|prune|socket|workers|heartbeat_interval",
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
def run_without_fork(coefficients, num_sites, options):
    """The process backend on a platform without ``os.fork``: every
    restart runs in the driver."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        with pytest.warns(RuntimeWarning, match="cannot fork"):
            return run_portfolio(coefficients, num_sites, options)


def run_on_drained_pool(coefficients, num_sites, options):
    """The process backend whose every forked worker hangs up at once:
    the pool drains and the driver runs the restarts itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            worker, "run_worker", lambda sock, plan, faults: sock.close()
        )
        with pytest.warns(RuntimeWarning, match="drained"):
            return run_portfolio(
                coefficients, num_sites, options, backend="process"
            )


class TestBackendParity:
    @pytest.fixture(scope="class")
    def per_backend(self, coefficients):
        """Serial, two forked workers, and the process backend where
        the platform cannot fork."""
        options = SaOptions(seed=11, restarts=4, **PROCESS, **FAST)
        return {
            "serial": run_portfolio(
                coefficients, 3, options, backend="serial"
            ),
            "process": run_portfolio(coefficients, 3, options),
            "no-fork": run_without_fork(coefficients, 3, options),
        }

    def test_bitwise_identical_best(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "no-fork"):
            other = per_backend[backend]
            assert other.objective6 == serial.objective6
            assert other.best_restart == serial.best_restart
            np.testing.assert_array_equal(other.x, serial.x)
            np.testing.assert_array_equal(other.y, serial.y)

    def test_identical_per_restart_records(self, per_backend):
        serial = per_backend["serial"]
        for backend in ("process", "no-fork"):
            other = per_backend[backend]
            assert other.restart_objectives == serial.restart_objectives
            assert other.restart_seeds == serial.restart_seeds
            assert [o.iterations for o in other.outcomes] == [
                o.iterations for o in serial.outcomes
            ]

    def test_executor_label(self, per_backend):
        assert per_backend["serial"].executor == "serial"
        assert per_backend["process"].executor == "process"
        assert per_backend["no-fork"].executor == "process"

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
# The in-driver fallback
# ----------------------------------------------------------------------
class TestInDriverFallback:
    @pytest.mark.parametrize(
        "run", [run_without_fork, run_on_drained_pool],
        ids=["no-fork", "drained-pool"],
    )
    def test_edited_coefficients_anneal_as_given(self, coefficients, run):
        """The driver runs the restarts still owed on the caller's own
        coefficients, as the serial backend does, so edited arrays give
        the serial answer."""
        doctored = dataclasses.replace(coefficients, c1=coefficients.c1 * 2.0)
        options = SaOptions(seed=1, restarts=3, max_retries=0, **PROCESS, **FAST)
        serial = run_portfolio(doctored, 3, options, backend="serial")
        result = run(doctored, 3, options)
        assert result.objective6 == serial.objective6
        assert result.restart_objectives == serial.restart_objectives
        np.testing.assert_array_equal(result.x, serial.x)
        np.testing.assert_array_equal(result.y, serial.y)

    def test_a_raising_restart_propagates(self, coefficients, monkeypatch):
        """In the driver a restart's exception propagates, as it does
        from the serial backend; nothing retries it."""
        from repro.sa.backends import serial

        def explode(*args, **kwargs):
            raise RuntimeError("restart exploded")

        monkeypatch.setattr(serial, "run_restart", explode)
        with pytest.raises(RuntimeError, match="restart exploded"):
            run_without_fork(
                coefficients, 3, SaOptions(seed=1, restarts=2, **PROCESS, **FAST)
            )


# ----------------------------------------------------------------------
# Retry budget
# ----------------------------------------------------------------------
class TestQueueFaults:
    """The retry budget of the process backend; the fault paths
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
