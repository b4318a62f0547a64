"""Pluggable portfolio execution backends and the shared incumbent.

Pins the PR-5 acceptance contract: all backends return bitwise-identical
best results per master seed, task envelopes round-trip and replay
byte-identically, and pruning only ever skips restarts that cannot win.
Envelope-level worker faults are pinned in ``tests/test_transport.py``.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.api.advisor import advise
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import (
    SolutionEvaluator,
    objective6_lower_bound,
)
from repro.exceptions import OptionsError, SolverError
from repro.model.instance import ProblemInstance
from repro.model.schema import SchemaBuilder
from repro.model.workload import Query, Transaction, Workload
from repro.sa.backends import (
    BackendRun,
    PortfolioPlan,
    QueueWorker,
    SerialBackend,
    SharedIncumbent,
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
from tests.conftest import random_feasible_solution, small_random_instance

FAST = dict(inner_loops=6, max_outer_loops=6)
#: The socket backend's in-driver loop: task envelopes through a
#: ``QueueWorker`` in this process, no worker processes spawned.
IN_DRIVER = dict(backend="socket", workers=0)


@pytest.fixture(scope="module")
def coefficients():
    instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
    return build_coefficients(instance, CostParameters())


def read_only_instance() -> ProblemInstance:
    """Read-only, every attribute of a touched table accessed directly.

    Under pure cost weighting (``lambda = 1``) every feasible solution
    pays exactly the forced read floor (all widths/frequencies integral,
    so the arithmetic is exact): objective (6) equals
    :func:`objective6_lower_bound` for *any* placement, which makes the
    incumbent's prune proof fire after the first restart.
    """
    schema = (
        SchemaBuilder("flat")
        .table("U", id=4, name=16)
        .table("V", key=4, val=8)
        .build()
    )
    workload = Workload(
        [
            Transaction("A", (Query.read("A.q", ["U.id", "U.name"]),)),
            Transaction("B", (Query.read("B.q", ["V.key", "V.val"]),)),
            Transaction("C", (Query.read("C.q", ["U.id", "U.name"]),)),
        ],
        name="flat-load",
    )
    return ProblemInstance(schema, workload, name="flat")


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
        for options in ({"backend": "queue"}, {"incremental": False}):
            with pytest.raises(OptionsError, match="queue|incremental"):
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
        assert result.metadata["pruned_restarts"] == 0

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
        payload["format_version"] = 99
        with pytest.raises(OptionsError, match="format_version"):
            decode_restart_task(json.dumps(payload))
        payload["format_version"] = ENVELOPE_FORMAT_VERSION
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
# Shared incumbent + pruning
# ----------------------------------------------------------------------
class TestSharedIncumbent:
    def test_publish_keeps_objective_restart_minimum(self):
        incumbent = SharedIncumbent()
        incumbent.publish(10.0, 3)
        incumbent.publish(10.0, 1)  # same objective, earlier restart wins
        incumbent.publish(12.0, 0)  # worse objective loses
        assert incumbent.snapshot() == (10.0, 1)
        assert incumbent.published == 3

    def test_proof_requires_bound_and_earlier_index(self):
        incumbent = SharedIncumbent(lower_bound=10.0)
        assert not incumbent.proves_unbeatable(5)  # nothing published
        incumbent.publish(11.0, 1)
        assert not incumbent.proves_unbeatable(5)  # bound not reached
        incumbent.publish(10.0, 2)
        assert incumbent.proves_unbeatable(5)
        assert not incumbent.proves_unbeatable(2)  # itself
        assert not incumbent.proves_unbeatable(0)  # earlier index may tie-win

    def test_default_bound_never_proves(self):
        incumbent = SharedIncumbent()
        incumbent.publish(0.0, 0)
        assert incumbent.lower_bound == -math.inf
        assert not incumbent.proves_unbeatable(1)


class TestLowerBound:
    def test_bound_sound_on_random_instances(self):
        """The bound never exceeds any feasible solution's objective."""
        for seed in range(6):
            instance = small_random_instance(seed)
            for lam in (1.0, 0.5):
                coefficients = build_coefficients(
                    instance, CostParameters(load_balance_lambda=lam)
                )
                bound = objective6_lower_bound(coefficients, 3)
                evaluator = SolutionEvaluator(coefficients)
                for solution_seed in range(4):
                    x, y = random_feasible_solution(coefficients, 3, solution_seed)
                    assert bound <= evaluator.objective6(x, y) + 1e-9

    def test_bound_retreats_under_fractional_penalty(self):
        """Fractional network penalties make the evaluator's c1/c2
        einsums inexact (the p*B cancellation rounds), so the bound must
        leave its exact fast-path and retreat below every *reported*
        objective — strictly, no epsilon slop."""
        for penalty in (0.1, 7.9):
            for seed in range(4):
                instance = small_random_instance(seed)
                coefficients = build_coefficients(
                    instance,
                    CostParameters(
                        network_penalty=penalty, load_balance_lambda=1.0
                    ),
                )
                bound = objective6_lower_bound(coefficients, 3)
                evaluator = SolutionEvaluator(coefficients)
                for solution_seed in range(4):
                    x, y = random_feasible_solution(coefficients, 3, solution_seed)
                    assert bound <= evaluator.objective6(x, y)

    def test_bound_sound_on_single_site(self, coefficients):
        """|S| = 1 admits exactly one solution; the bound stays below it
        (strictly, when the instance has table-fraction-only reads that
        co-location never forces)."""
        evaluator = SolutionEvaluator(coefficients)
        x = np.ones((coefficients.num_transactions, 1), dtype=bool)
        y = np.ones((coefficients.num_attributes, 1), dtype=bool)
        assert objective6_lower_bound(coefficients, 1) <= evaluator.objective6(x, y)

    def test_bound_tight_when_all_reads_forced(self):
        """With alpha == beta (every attribute of a touched table is
        read directly) and pure cost weighting, every feasible solution
        pays exactly the floor — the bound is an equality."""
        coefficients = build_coefficients(
            read_only_instance(), CostParameters(load_balance_lambda=1.0)
        )
        bound = objective6_lower_bound(coefficients, 3)
        evaluator = SolutionEvaluator(coefficients)
        for solution_seed in range(4):
            x, y = random_feasible_solution(coefficients, 3, solution_seed)
            assert evaluator.objective6(x, y) == bound


class TestPruning:
    @pytest.fixture(scope="class")
    def flat_coefficients(self):
        return build_coefficients(
            read_only_instance(), CostParameters(load_balance_lambda=1.0)
        )

    @pytest.mark.parametrize("backend", ["serial", "socket"])
    def test_prune_skips_doomed_restarts_bitwise_identically(
        self, flat_coefficients, backend
    ):
        options = dict(seed=3, restarts=5, backend=backend, workers=0, **FAST)
        pruned = run_portfolio(
            flat_coefficients, 3, SaOptions(prune=True, **options)
        )
        full = run_portfolio(flat_coefficients, 3, SaOptions(**options))
        # restart 0 reaches the provable floor, so 1..4 are skipped ...
        assert pruned.pruned == 4
        assert len(pruned.outcomes) == 1
        assert len(pruned.outcomes) + pruned.pruned + pruned.cancelled == 5
        # ... without changing anything about the returned best.
        assert pruned.objective6 == full.objective6
        assert pruned.best_restart == full.best_restart == 0
        np.testing.assert_array_equal(pruned.x, full.x)
        np.testing.assert_array_equal(pruned.y, full.y)
        assert pruned.objective6 == objective6_lower_bound(flat_coefficients, 3)

    def test_pool_prune_is_best_effort_but_identical(self, flat_coefficients):
        """The pool cancels unstarted futures only; results still match."""
        options = dict(seed=3, restarts=5, jobs=2, backend="process", **FAST)
        pruned = run_portfolio(
            flat_coefficients, 3, SaOptions(prune=True, **options)
        )
        full = run_portfolio(flat_coefficients, 3, SaOptions(**options))
        assert pruned.objective6 == full.objective6
        assert pruned.best_restart == full.best_restart
        np.testing.assert_array_equal(pruned.x, full.x)
        assert 0 <= pruned.pruned <= 4
        assert len(pruned.outcomes) + pruned.pruned == 5

    def test_prune_noop_when_bound_unreachable(self, coefficients):
        """On ordinary instances the proof never fires: zero skips and
        the exact same portfolio as prune=False."""
        options = dict(seed=11, restarts=4, **FAST)
        pruned = run_portfolio(coefficients, 3, SaOptions(prune=True, **options))
        full = run_portfolio(coefficients, 3, SaOptions(**options))
        assert pruned.pruned == 0
        assert pruned.restart_objectives == full.restart_objectives
        np.testing.assert_array_equal(pruned.x, full.x)

    def test_prune_metadata_exposed(self, flat_coefficients):
        result = SaPartitioner(
            flat_coefficients, 3,
            options=SaOptions(seed=3, restarts=5, prune=True, **FAST),
        ).solve()
        assert result.metadata["pruned_restarts"] == 4
        assert result.metadata["executor"] == "serial"


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
        assert (run.cancelled, run.pruned, run.kind) == (0, 0, "serial")
