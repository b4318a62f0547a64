"""Fault-tolerant socket transport: protocol, fault harness, chaos parity.

Pins the transport's contract: length-prefixed frames round-trip and
reject garbage, a worker heartbeats from its anneal loop and fires its
scheduled faults exactly, and — the headline — the process backend
returns a best that is bitwise identical to
:class:`~repro.sa.backends.serial.SerialBackend` under *every* fault
schedule, with no healthy worker written off.
"""

import ctypes
import dataclasses
import functools
import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.advisor import advise
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.costmodel.config import CostParameters
from repro.exceptions import (
    ConnectionClosedError,
    OptionsError,
    SolverError,
    TransportError,
)
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.backends import PortfolioPlan, backend_names, get_backend
from repro.sa.options import SaOptions
from repro.sa.portfolio import derive_restart_seeds, run_portfolio
from repro.sa.subsolve import SubproblemSolver
from repro.sa.transport import (
    Endpoint,
    Fault,
    FaultPlan,
    SocketTransportBackend,
)
from repro.sa.transport import protocol, socket_backend
from repro.sa.transport.faults import FaultInjected
from repro.sa.transport.protocol import (
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_SHUTDOWN,
    KIND_TASK,
    decode_payload,
    encode_frame,
)
from repro.sa.worker import WorkerSession
from tests.conftest import small_random_instance

#: One portfolio configuration shared by every parity test: small
#: enough to keep the chaos matrix fast, retried/timed tightly enough
#: that every recovery path actually fires within the test budget.
CHAOS_OPTIONS = dict(
    seed=42,
    restarts=4,
    jobs=2,
    inner_loops=3,
    max_outer_loops=8,
    max_retries=3,
    heartbeat_timeout=1.0,
    backoff_base=0.01,
)

NUM_SITES = 3


@pytest.fixture(scope="module")
def coefficients():
    instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
    return build_coefficients(instance, CostParameters())


@pytest.fixture(scope="module")
def serial_baseline(coefficients):
    """The ground truth the whole fault matrix must reproduce bitwise."""
    return run_portfolio(
        coefficients, NUM_SITES, SaOptions(**CHAOS_OPTIONS), backend="serial"
    )


def assert_bitwise_identical(result, baseline):
    assert result.objective6 == baseline.objective6
    assert result.best_restart == baseline.best_restart
    np.testing.assert_array_equal(result.x, baseline.x)
    np.testing.assert_array_equal(result.y, baseline.y)


def endpoint_pair():
    left, right = socket_module.socketpair()
    return Endpoint(left), Endpoint(right)


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        frame = encode_frame(KIND_RESULT, restart=3, x=[0, 1])
        payload = decode_payload(frame[4:])
        assert payload == {"kind": KIND_RESULT, "restart": 3, "x": [0, 1]}

    def test_identical_messages_are_identical_bytes(self):
        """Sorted-key dumps: equal payloads encode to equal bytes."""
        a = encode_frame(KIND_RESULT, restart=1, seed=5, iterations=9)
        b = encode_frame(KIND_RESULT, iterations=9, seed=5, restart=1)
        assert a == b

    def test_oversize_frame_refused_on_send(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame(KIND_RESULT, message="x" * 64)

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe garbage", b"[1, 2, 3]", b'{"no": "kind"}', b'"scalar"'],
    )
    def test_decode_payload_rejects_garbage(self, data):
        with pytest.raises(TransportError):
            decode_payload(data)

    def test_endpoint_round_trip_and_ordering(self):
        driver, worker = endpoint_pair()
        try:
            for index in range(3):
                worker.send(KIND_HEARTBEAT, restart=0, iterations=index)
            for index in range(3):
                frame = driver.recv(timeout=1.0)
                assert frame["kind"] == KIND_HEARTBEAT
                assert frame["iterations"] == index
        finally:
            driver.close()
            worker.close()

    def test_endpoint_reassembles_split_frames(self):
        """A frame arriving one TCP segment at a time is buffered until
        complete — recv never returns a partial payload."""
        driver, worker = endpoint_pair()
        try:
            frame = encode_frame(KIND_RESULT, restart=2, seed=5)
            worker.sock.sendall(frame[:3])
            assert driver.recv(timeout=0.05) is None
            worker.sock.sendall(frame[3:])
            received = driver.recv(timeout=1.0)
            assert received["restart"] == 2
        finally:
            driver.close()
            worker.close()

    def test_recv_timeout_returns_none(self):
        driver, worker = endpoint_pair()
        try:
            assert driver.recv(timeout=0.05) is None
        finally:
            driver.close()
            worker.close()

    def test_peer_close_raises_connection_closed(self):
        driver, worker = endpoint_pair()
        worker.close()
        try:
            with pytest.raises(ConnectionClosedError):
                driver.recv(timeout=1.0)
        finally:
            driver.close()

    def test_frames_before_a_close_are_delivered_first(self):
        """A frame and the close that follows it in one read still
        reach the driver in order: the frame, then the close."""
        driver, worker = endpoint_pair()
        worker.send(KIND_RESULT, restart=0)
        worker.close()
        try:
            assert [frame["restart"] for frame in driver.receive_available()] == [0]
            with pytest.raises(ConnectionClosedError):
                driver.receive_available()
        finally:
            driver.close()

    def test_corrupt_length_prefix_rejected(self):
        """A length prefix announcing gigabytes is refused instead of
        allocated."""
        driver, worker = endpoint_pair()
        try:
            worker.sock.sendall(b"\xff\xff\xff\xff payload")
            with pytest.raises(TransportError, match="MAX_FRAME_BYTES"):
                driver.recv(timeout=1.0)
        finally:
            driver.close()
            worker.close()


# ----------------------------------------------------------------------
# Fault plans and the worker session
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_is_deterministic_per_seed(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)
        plan = FaultPlan.random(7, faults=5, connections=3)
        assert len(plan.faults) == 5
        assert all(fault.connection < 3 for fault in plan.faults)
        assert {fault.action for fault in plan.faults} <= {"block", "kill-worker"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(action="sabotage"),
            dict(action="drop"),
            dict(action="stall-heartbeat"),
            dict(action="kill-worker", index=-1),
            dict(action="block", connection=-2),
        ],
    )
    def test_fault_validation(self, kwargs):
        with pytest.raises(OptionsError):
            Fault(**kwargs)


def run_session(coefficients, tasks, faults=(), **options):
    """Serve ``tasks`` (restart indices) in this process through a
    :class:`WorkerSession`, then return every frame it sent."""
    options = SaOptions(**dict(CHAOS_OPTIONS, **options))
    plan = PortfolioPlan(
        coefficients,
        NUM_SITES,
        options,
        derive_restart_seeds(options.seed, options.restarts),
    )
    driver, worker = endpoint_pair()
    try:
        for restart in tasks:
            driver.send(KIND_TASK, restart=restart)
        driver.send(KIND_SHUTDOWN)
        session = WorkerSession(worker, plan, faults)
        try:
            session.run()
        except FaultInjected:
            worker.close()
        return driver.receive_available()
    finally:
        driver.close()


class TestWorkerSession:
    def test_each_restart_beats_as_it_starts(self, coefficients):
        """The call that starts a restart always beats, naming the
        restart; within one beat interval no further call does."""
        frames = run_session(coefficients, [0, 1], heartbeat_timeout=100.0)
        assert [(f["kind"], f["restart"]) for f in frames] == [
            (KIND_HEARTBEAT, 0),
            (KIND_RESULT, 0),
            (KIND_HEARTBEAT, 1),
            (KIND_RESULT, 1),
        ]
        assert [f["iterations"] for f in frames[::2]] == [0, 0]

    def test_kill_fires_at_the_indexed_result(self, coefficients):
        """``kill-worker`` at index 1: the first result goes out, the
        second is computed but never sent."""
        frames = run_session(
            coefficients,
            [0, 1],
            faults=[Fault("kill-worker", index=1)],
            heartbeat_timeout=100.0,
        )
        assert [f["restart"] for f in frames if f["kind"] == KIND_RESULT] == [0]
        assert frames[-1] == {
            "kind": KIND_HEARTBEAT, "restart": 1, "iterations": 0,
        }


# ----------------------------------------------------------------------
# Backend registry + construction
# ----------------------------------------------------------------------
class TestSocketBackendConfig:
    def test_registered(self):
        assert "socket" not in backend_names()
        assert isinstance(get_backend("process"), SocketTransportBackend)


# ----------------------------------------------------------------------
# Clean-weather parity (no faults)
# ----------------------------------------------------------------------
class TestCleanParity:
    def test_process_spawn_matches_serial(self, coefficients, serial_baseline):
        """Two forked worker processes, round trip and clean exit."""
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend="process",
        )
        assert_bitwise_identical(result, serial_baseline)
        assert result.executor == "process"
        assert result.requeue_count == 0
        assert result.worker_failures == 0

    def test_idle_workers_get_a_task_before_the_driver_waits(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """The driver never blocks in select while a worker sits idle
        and a task is ready, which would cost every portfolio a select
        timeout before its first dispatch."""
        real_pump = socket_backend._Driver._pump
        stalls = []

        def pump(driver):
            idle = any(
                connection.inflight is None
                for connection in driver.connections.values()
            )
            ready = bool(driver.pending)
            if idle and ready:
                stalls.append(len(driver.done))
            return real_pump(driver)

        monkeypatch.setattr(socket_backend._Driver, "_pump", pump)
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend="process",
        )
        assert_bitwise_identical(result, serial_baseline)
        assert stalls == []

    def test_workers_option_flows_from_sa_options(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """``SaOptions(jobs=...)`` sets how many workers the
        registry-constructed backend forks (the CLI's ``--jobs`` path)."""
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(backend="process", **CHAOS_OPTIONS),
        )
        assert_bitwise_identical(result, serial_baseline)
        assert len(forks) == 2


# ----------------------------------------------------------------------
# The chaos matrix: every fault schedule
# ----------------------------------------------------------------------
CHAOS_PLANS = {
    # One fault per failure a forked worker can suffer ...
    "kill-worker": FaultPlan((Fault("kill-worker", connection=1, index=0),)),
    "block": FaultPlan((Fault("block", connection=0, index=1),)),
    # ... both at once ...
    "storm": FaultPlan(
        (
            Fault("kill-worker", connection=1, index=0),
            Fault("block", connection=0, index=2),
        )
    ),
    # ... and seeded random schedules, reproducible from the seed alone.
    "random-7": FaultPlan.random(7),
    "random-19": FaultPlan.random(19),
    "random-23": FaultPlan.random(23),
}

# CI's chaos job fans the suite out over extra fault-plan seeds
# (REPRO_CHAOS_SEED) — more schedules per run, zero nondeterminism.
_EXTRA_CHAOS_SEED = os.environ.get("REPRO_CHAOS_SEED")
if _EXTRA_CHAOS_SEED is not None:
    CHAOS_PLANS[f"random-{_EXTRA_CHAOS_SEED}"] = FaultPlan.random(
        int(_EXTRA_CHAOS_SEED)
    )


@pytest.mark.chaos
class TestChaosParity:
    @pytest.mark.parametrize("name", sorted(CHAOS_PLANS))
    def test_fault_schedule_preserves_bitwise_result(
        self, coefficients, serial_baseline, name
    ):
        backend = SocketTransportBackend(fault_plan=CHAOS_PLANS[name])
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=backend,
        )
        assert_bitwise_identical(result, serial_baseline)

    def test_storm_telemetry_counts_recoveries(self, coefficients):
        """The storm must exercise the machinery it claims to: requeues
        granted, a worker failure observed, retried restarts counted."""
        backend = SocketTransportBackend(fault_plan=CHAOS_PLANS["storm"])
        result = run_portfolio(
            coefficients, NUM_SITES, SaOptions(**CHAOS_OPTIONS), backend=backend
        )
        assert result.requeue_count >= 1
        assert result.retried_restarts >= 1
        assert result.worker_failures >= 1


# ----------------------------------------------------------------------
# Hard-failure paths
# ----------------------------------------------------------------------
class TestFailurePaths:
    def test_exhausted_retry_budget_raises_naming_the_restart(
        self, coefficients
    ):
        """A restart that keeps dying must fail the solve loudly — a
        silently lost restart would change the best-of-N result."""
        options = dict(CHAOS_OPTIONS, max_retries=0, restarts=2, jobs=1)
        plan = FaultPlan((Fault("kill-worker", connection=0, index=0),))
        backend = SocketTransportBackend(fault_plan=plan)
        with pytest.raises(
            SolverError, match=r"process worker failed restart \d+"
        ):
            run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options), backend=backend
            )

    def test_drained_pool_degrades_to_in_driver_execution(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """When every worker hangs up at once and the spawn budget is
        spent, the driver warns and finishes the portfolio itself —
        bitwise identically.  The restarts the workers never started
        cost no retries, so ``max_retries=0`` still finishes."""
        from repro.sa import worker

        monkeypatch.setattr(
            worker, "run_worker", lambda sock, plan, faults: sock.close()
        )
        options = dict(CHAOS_OPTIONS, max_retries=0)
        with pytest.warns(RuntimeWarning, match="drained"):
            result = run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options), backend="process"
            )
        assert_bitwise_identical(result, serial_baseline)


# ----------------------------------------------------------------------
# Forked workers: real process exits, BLAS threads, no-fork platforms
# ----------------------------------------------------------------------
def _blas_threads() -> int:
    from numpy._core import _multiarray_umath

    getter = ctypes.CDLL(
        _multiarray_umath.__file__
    ).scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


#: Runs CHAOS_OPTIONS (argv[2]) on forked workers after patching the
#: annealer so that the first forked worker to create the marker file
#: argv[1] blocks forever in its first x sub-solve, then prints the
#: result as JSON.  The fork inherits the patch.
_BLOCKED_WORKER_SCRIPT = """
import json, os, sys, time
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.options import SaOptions
from repro.sa.portfolio import run_portfolio
from tests.conftest import small_random_instance

marker, options = sys.argv[1], json.loads(sys.argv[2])
driver = os.getpid()
real_optimize_x = SimulatedAnnealer._optimize_x


def optimize_x(self, *args, **kwargs):
    if os.getpid() != driver:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            while True:
                time.sleep(1)
    return real_optimize_x(self, *args, **kwargs)


SimulatedAnnealer._optimize_x = optimize_x
instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
coefficients = build_coefficients(instance, CostParameters())
result = run_portfolio(
    coefficients, 3, SaOptions(**options), backend="process"
)
print(json.dumps(dict(
    objective6=result.objective6,
    best_restart=result.best_restart,
    x=result.x.astype(int).tolist(),
    y=result.y.astype(int).tolist(),
    requeue_count=result.requeue_count,
)))
"""


class TestForkedWorkers:
    @pytest.mark.chaos
    def test_killed_worker_is_requeued_bitwise_equal_to_serial(
        self, coefficients, serial_baseline
    ):
        """A kill ends the forked worker's process mid-restart; the
        driver sees the connection close, requeues the restart on a
        fresh fork and still answers as serial does."""
        plan = FaultPlan(
            tuple(Fault("kill-worker", connection=ordinal) for ordinal in (0, 1))
        )
        result = run_portfolio(
            coefficients, NUM_SITES, SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(fault_plan=plan),
        )
        assert_bitwise_identical(result, serial_baseline)
        assert result.restart_objectives == serial_baseline.restart_objectives
        assert result.requeue_count >= 1
        assert result.worker_failures >= 1

    @pytest.mark.chaos
    def test_worker_death_on_every_attempt_names_the_restart(
        self, coefficients
    ):
        """Every worker dies on its first result, so the restart spends
        its retry budget and the solve fails naming it — never a
        silently incomplete best-of-N."""
        plan = FaultPlan(
            tuple(Fault("kill-worker", connection=ordinal) for ordinal in range(3))
        )
        options = dict(
            CHAOS_OPTIONS, restarts=1, jobs=1, max_retries=1, backoff_base=0.0
        )
        with pytest.raises(
            SolverError, match="process worker failed restart 0 2 times"
        ):
            run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options),
                backend=SocketTransportBackend(fault_plan=plan),
            )

    def test_workers_anneal_the_callers_coefficients(self, coefficients):
        """Workers inherit the plan, so coefficients that differ from a
        canonical rebuild are annealed as given, exactly as serially."""
        doctored = dataclasses.replace(coefficients, c1=coefficients.c1 * 2.0)
        serial = run_portfolio(
            doctored, NUM_SITES, SaOptions(**CHAOS_OPTIONS), backend="serial"
        )
        result = run_portfolio(
            doctored, NUM_SITES, SaOptions(**CHAOS_OPTIONS), backend="process"
        )
        assert_bitwise_identical(result, serial)
        assert result.restart_objectives == serial.restart_objectives
        assert result.worker_failures == 0

    def test_lock_held_by_a_driver_thread_at_fork_is_not_inherited(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """A driver thread computing a cached property while the workers
        fork (a service solving in threads) must not leave them waiting
        on that property's lock, which a fork copies held."""
        locks = [
            attribute.lock
            for cls in (CostCoefficients, type(coefficients.instance))
            for attribute in vars(cls).values()
            if isinstance(attribute, functools.cached_property)
            and hasattr(attribute, "lock")
        ]
        if not locks:
            pytest.skip("this Python's cached_property takes no lock")
        fresh = build_coefficients(coefficients.instance, coefficients.parameters)
        held, forked = threading.Event(), threading.Event()

        def hold_locks_until_forked():
            for lock in locks:
                lock.acquire()
            held.set()
            forked.wait(timeout=60)
            for lock in locks:
                lock.release()

        real_connect = socket_backend._Driver._connect
        drivers = []

        def connect(driver, sock, pid):
            drivers.append(driver)
            forked.set()  # the first worker is forked
            return real_connect(driver, sock, pid)

        monkeypatch.setattr(socket_backend._Driver, "_connect", connect)
        holder = threading.Thread(target=hold_locks_until_forked, daemon=True)
        holder.start()
        assert held.wait(timeout=10)
        results = []
        solve = threading.Thread(
            target=lambda: results.append(
                run_portfolio(
                    fresh, NUM_SITES, SaOptions(**CHAOS_OPTIONS),
                    backend="process",
                )
            ),
            daemon=True,
        )
        solve.start()
        solve.join(timeout=60)
        holder.join(timeout=10)
        if solve.is_alive():
            for pid in drivers[0].pids:  # do not leave hung workers behind
                os.kill(pid, signal.SIGKILL)
            pytest.fail("a forked worker waited on a lock held at fork")
        assert_bitwise_identical(results[0], serial_baseline)

    @pytest.mark.chaos
    def test_blocked_worker_is_written_off_and_its_restart_requeued(
        self, serial_baseline, tmp_path
    ):
        """A forked worker whose main thread blocks forever mid-restart
        goes silent; the driver writes it off after ``heartbeat_timeout``
        and requeues the restart, so the portfolio still answers as
        serial does.  The solve runs in its own session, killed as a
        whole if it hangs."""
        root = Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _BLOCKED_WORKER_SCRIPT,
                str(tmp_path / "blocked"),
                json.dumps(CHAOS_OPTIONS),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("a worker whose main thread blocked hung the portfolio")
        assert process.returncode == 0, err
        with pytest.raises(ProcessLookupError):  # every worker was reaped
            os.killpg(process.pid, 0)
        result = json.loads(out)
        assert result["objective6"] == serial_baseline.objective6
        assert result["best_restart"] == serial_baseline.best_restart
        np.testing.assert_array_equal(result["x"], serial_baseline.x)
        np.testing.assert_array_equal(result["y"], serial_baseline.y)
        assert result["requeue_count"] >= 1

    @pytest.mark.chaos
    def test_no_healthy_worker_is_written_off(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """With ``heartbeat_timeout=0.3``, restart 0 is slowed to about a
        second by short sleeps between progress calls, and the sibling
        that ran the other restarts idles meanwhile: the beating worker
        and the idle one both outlive the timeout, and neither is
        written off."""
        timeout = 0.3
        real_run = SimulatedAnnealer.run

        def slowed(step):
            def slow_step(*args, **kwargs):
                time.sleep(0.04)
                return step(*args, **kwargs)

            return slow_step

        def run(annealer):
            if annealer.options.seed == CHAOS_OPTIONS["seed"]:  # restart 0
                annealer._optimize_x = slowed(annealer._optimize_x)
                annealer._optimize_y = slowed(annealer._optimize_y)
            return real_run(annealer)

        idle = []
        real_sweep = socket_backend._Driver._sweep_liveness

        def sweep(driver):
            now = time.monotonic()
            idle.extend(
                now - connection.last_seen
                for connection in driver.connections.values()
                if connection.inflight is None
            )
            return real_sweep(driver)

        monkeypatch.setattr(SimulatedAnnealer, "run", run)
        monkeypatch.setattr(socket_backend._Driver, "_sweep_liveness", sweep)
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**dict(CHAOS_OPTIONS, heartbeat_timeout=timeout)),
            backend="process",
        )
        assert_bitwise_identical(result, serial_baseline)
        assert result.restart_objectives == serial_baseline.restart_objectives
        assert result.worker_failures == 0
        assert result.outcomes[0].wall_time > 2 * timeout
        assert max(idle) > timeout

    def test_exact_sub_solve_is_not_mistaken_for_a_block(
        self, coefficients, monkeypatch
    ):
        """One exact sub-solve runs with no progress call inside, so a
        slow one may outlast ``heartbeat_timeout``: the driver allows
        ``exact_time_limit`` more silence under ``subsolver="exact"``."""
        timeout = 0.3
        options = SaOptions(
            **dict(
                CHAOS_OPTIONS,
                subsolver="exact",
                restarts=2,
                inner_loops=2,
                max_outer_loops=2,
                heartbeat_timeout=timeout,
            )
        )
        serial = run_portfolio(coefficients, NUM_SITES, options, backend="serial")
        slept = set()
        real_optimize_x_exact = SubproblemSolver.optimize_x_exact

        def optimize_x_exact(solver, *args, **kwargs):
            if os.getpid() not in slept:  # once per worker
                slept.add(os.getpid())
                time.sleep(2 * timeout)
            return real_optimize_x_exact(solver, *args, **kwargs)

        monkeypatch.setattr(SubproblemSolver, "optimize_x_exact", optimize_x_exact)
        result = run_portfolio(coefficients, NUM_SITES, options, backend="process")
        assert_bitwise_identical(result, serial)
        assert result.restart_objectives == serial.restart_objectives
        assert result.worker_failures == 0

    def test_forked_workers_run_blas_on_one_thread(
        self, coefficients, monkeypatch, tmp_path
    ):
        """Each forked worker pins OpenBLAS to one thread, so ``jobs``
        workers do not oversubscribe the cores."""
        from repro.sa import worker

        try:
            _blas_threads()
        except (ImportError, OSError, AttributeError):
            pytest.skip("numpy's BLAS exports no thread-count getter")
        real_run_worker = worker.run_worker

        def recording(sock, plan, **kwargs):
            (tmp_path / str(os.getpid())).write_text(str(_blas_threads()))
            return real_run_worker(sock, plan, **kwargs)

        monkeypatch.setattr(worker, "run_worker", recording)
        run_portfolio(
            coefficients, NUM_SITES, SaOptions(**CHAOS_OPTIONS),
            backend="process",
        )
        # A worker forked after the others finished the portfolio may be
        # stopped before it records; every worker that did saw one.
        records = [path.read_text() for path in tmp_path.iterdir()]
        counts = [int(record) for record in records if record]
        assert counts and set(counts) == {1}

    def test_without_fork_runs_in_driver_with_a_warning(
        self, coefficients, serial_baseline, monkeypatch
    ):
        monkeypatch.delattr(os, "fork")
        with pytest.warns(RuntimeWarning, match="in-driver"):
            result = run_portfolio(
                coefficients, NUM_SITES,
                SaOptions(backend="process", **CHAOS_OPTIONS),
            )
        assert result.executor == "process"
        assert result.restart_objectives == serial_baseline.restart_objectives
        assert_bitwise_identical(result, serial_baseline)


# ----------------------------------------------------------------------
# Telemetry surfacing (satellite: SolveReport metadata + resilience)
# ----------------------------------------------------------------------
class TestTelemetrySurfacing:
    def test_report_metadata_and_resilience_mapping(self):
        instance = small_random_instance(3)
        report = advise(
            SolveRequest(
                instance=instance,
                num_sites=2,
                strategy="sa-portfolio",
                seed=7,
                options=dict(
                    restarts=2, inner_loops=3, max_outer_loops=6,
                    backend="process", jobs=2,
                ),
            )
        )
        for key in (
            "retried_restarts",
            "requeue_count",
            "worker_failures",
        ):
            assert key in report.metadata
        assert report.resilience == {
            "retried_restarts": 0,
            "requeue_count": 0,
            "worker_failures": 0,
        }
