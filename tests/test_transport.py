"""Fault-tolerant socket transport: protocol, fault harness, chaos parity.

Pins the transport's contract: length-prefixed frames round-trip and
reject garbage, the deterministic fault harness replays its schedule
exactly, and — the headline — the process backend returns a best that is
bitwise identical to :class:`~repro.sa.backends.serial.SerialBackend`
under *every* fault schedule, on thread fakes and forked workers alike.
"""

import ctypes
import dataclasses
import functools
import os
import signal
import socket as socket_module
import threading

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
from repro.sa.backends import backend_names, get_backend
from repro.sa.options import SaOptions
from repro.sa.portfolio import run_portfolio
from repro.sa.transport import (
    Endpoint,
    Fault,
    FaultPlan,
    FaultyEndpoint,
    SocketTransportBackend,
)
from repro.sa.transport import protocol, socket_backend
from repro.sa.transport.faults import FaultInjected
from repro.sa.transport.protocol import (
    KIND_HEARTBEAT,
    KIND_RESULT,
    KIND_TASK,
    decode_payload,
    encode_frame,
)
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
    heartbeat_interval=0.1,
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
        frame = encode_frame(KIND_TASK, task_id="3:0", restart=3, x=[0, 1])
        payload = decode_payload(frame[4:])
        assert payload == {
            "kind": KIND_TASK,
            "task_id": "3:0",
            "restart": 3,
            "x": [0, 1],
        }

    def test_identical_messages_are_identical_bytes(self):
        """Sorted-key dumps: the fault harness can target 'the third
        RESULT frame' only because equal payloads encode equally."""
        a = encode_frame(KIND_RESULT, restart=1, seed=5, task_id="1:0")
        b = encode_frame(KIND_RESULT, task_id="1:0", seed=5, restart=1)
        assert a == b

    def test_oversize_frame_refused_on_send(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame(KIND_TASK, task_id="x" * 64)

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
                worker.send(KIND_HEARTBEAT, task_id=None, beat=index)
            for index in range(3):
                frame = driver.recv(timeout=1.0)
                assert frame["kind"] == KIND_HEARTBEAT
                assert frame["beat"] == index
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
# Fault plans and the faulty endpoint
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_random_is_deterministic_per_seed(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)
        plan = FaultPlan.random(7, faults=5, connections=3)
        assert len(plan.faults) == 5
        assert all(fault.connection < 3 for fault in plan.faults)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(action="sabotage"),
            dict(action="drop", direction="sideways"),
            dict(action="drop", index=-1),
            dict(action="drop", connection=-2),
            dict(action="delay", delay=-0.5),
        ],
    )
    def test_fault_validation(self, kwargs):
        with pytest.raises(OptionsError):
            Fault(**kwargs)

    def test_endpoint_split_by_action_class(self):
        plan = FaultPlan(
            (
                Fault("drop", connection=0),
                Fault("kill-worker", connection=0),
                Fault("corrupt", connection=1),
            )
        )
        assert [f.action for f in plan.endpoint_faults(0)] == ["drop"]
        assert [f.action for f in plan.worker_faults(0)] == ["kill-worker"]
        assert [f.action for f in plan.endpoint_faults(1)] == ["corrupt"]


class TestFaultyEndpoint:
    def test_drop_on_recv_loses_exactly_the_indexed_frame(self):
        left, right = socket_module.socketpair()
        sender = Endpoint(right)
        receiver = FaultyEndpoint(
            left, [Fault("drop", kind="result", direction="recv", index=0)]
        )
        try:
            sender.send(KIND_RESULT, restart=0)
            sender.send(KIND_RESULT, restart=1)
            frame = receiver.recv(timeout=1.0)
            assert frame["restart"] == 1  # frame #0 silently vanished
        finally:
            sender.close()
            receiver.close()

    def test_duplicate_on_recv_replays_the_frame(self):
        left, right = socket_module.socketpair()
        sender = Endpoint(right)
        receiver = FaultyEndpoint(
            left, [Fault("duplicate", kind="result", direction="recv", index=0)]
        )
        try:
            sender.send(KIND_RESULT, restart=0)
            first = receiver.recv(timeout=1.0)
            second = receiver.recv(timeout=1.0)
            assert first == second
        finally:
            sender.close()
            receiver.close()

    def test_corrupt_on_send_breaks_decoding_not_framing(self):
        """Corruption flips payload bytes but never the length prefix:
        the receiver reads a complete frame and fails to *decode* it."""
        left, right = socket_module.socketpair()
        sender = FaultyEndpoint(
            right, [Fault("corrupt", kind="task", direction="send", index=0)]
        )
        receiver = Endpoint(left)
        try:
            sender.send(KIND_TASK, task_id="0:0", restart=0)
            with pytest.raises(TransportError):
                receiver.recv(timeout=1.0)
        finally:
            sender.close()
            receiver.close()

    def test_worker_kill_raises_on_matched_send(self):
        left, right = socket_module.socketpair()
        worker = FaultyEndpoint(
            right,
            [Fault("kill-worker", kind="result", direction="recv", index=0)],
            side="worker",
        )
        try:
            worker.send(KIND_HEARTBEAT, task_id=None)  # other kinds pass
            with pytest.raises(FaultInjected):
                worker.send(KIND_RESULT, restart=0)
        finally:
            worker.close()
            left.close()

    def test_worker_stall_swallows_heartbeats_stickily(self):
        left, right = socket_module.socketpair()
        worker = FaultyEndpoint(
            right,
            [Fault("stall-heartbeat", kind="heartbeat", direction="recv", index=1)],
            side="worker",
        )
        driver = Endpoint(left)
        try:
            worker.send(KIND_HEARTBEAT, beat=0)  # before the stall: delivered
            worker.send(KIND_HEARTBEAT, beat=1)  # stalled...
            worker.send(KIND_HEARTBEAT, beat=2)  # ...stickily
            worker.send(KIND_RESULT, restart=0)  # other kinds still flow
            assert driver.recv(timeout=1.0)["beat"] == 0
            assert driver.recv(timeout=1.0)["kind"] == KIND_RESULT
        finally:
            worker.close()
            driver.close()


# ----------------------------------------------------------------------
# Backend registry + construction
# ----------------------------------------------------------------------
class TestSocketBackendConfig:
    def test_registered(self):
        assert "socket" not in backend_names()
        assert isinstance(get_backend("process"), SocketTransportBackend)
        assert SocketTransportBackend().spawn == "fork"

    def test_invalid_construction(self):
        with pytest.raises(OptionsError, match="spawn"):
            SocketTransportBackend(spawn="carrier-pigeon")


# ----------------------------------------------------------------------
# Clean-weather parity (every spawn mode, no faults)
# ----------------------------------------------------------------------
class TestCleanParity:
    def test_thread_spawn_matches_serial(self, coefficients, serial_baseline):
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(spawn="thread"),
        )
        assert_bitwise_identical(result, serial_baseline)
        assert result.executor == "process"
        assert result.requeue_count == 0
        assert result.worker_failures == 0

    def test_process_spawn_matches_serial(self, coefficients, serial_baseline):
        """Two forked worker processes, round trip and clean exit."""
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend="process",
        )
        assert_bitwise_identical(result, serial_baseline)
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
            ready = any(
                task.restart not in driver.done for task, _ in driver.pending
            )
            if idle and ready:
                stalls.append(len(driver.done))
            return real_pump(driver)

        monkeypatch.setattr(socket_backend._Driver, "_pump", pump)
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(spawn="thread"),
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
    # One fault per failure family the recovery machinery handles ...
    "drop-result": FaultPlan(
        (Fault("drop", kind="result", direction="recv", index=0, connection=0),)
    ),
    "drop-task": FaultPlan(
        (Fault("drop", kind="task", direction="send", index=0, connection=0),)
    ),
    "delay-result": FaultPlan(
        (
            Fault(
                "delay",
                kind="result",
                direction="recv",
                index=0,
                connection=0,
                delay=0.2,
            ),
        )
    ),
    "duplicate-result": FaultPlan(
        (Fault("duplicate", kind="result", direction="recv", index=0, connection=0),)
    ),
    "duplicate-task": FaultPlan(
        (Fault("duplicate", kind="task", direction="send", index=0, connection=0),)
    ),
    "corrupt-result": FaultPlan(
        (Fault("corrupt", kind="result", direction="recv", index=0, connection=0),)
    ),
    "corrupt-task": FaultPlan(
        (Fault("corrupt", kind="task", direction="send", index=0, connection=0),)
    ),
    "kill-worker": FaultPlan(
        (Fault("kill-worker", kind="result", index=0, connection=1),)
    ),
    "stall-heartbeat": FaultPlan(
        (Fault("stall-heartbeat", kind="heartbeat", index=1, connection=0),)
    ),
    # ... a compound storm hitting three families at once ...
    "storm": FaultPlan(
        (
            Fault("drop", kind="result", direction="recv", index=0, connection=0),
            Fault("kill-worker", kind="result", index=0, connection=1),
            Fault("stall-heartbeat", kind="heartbeat", index=2, connection=0),
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
        backend = SocketTransportBackend(
            spawn="thread", fault_plan=CHAOS_PLANS[name]
        )
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
        backend = SocketTransportBackend(
            spawn="thread", fault_plan=CHAOS_PLANS["storm"]
        )
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
        plan = FaultPlan(
            (Fault("kill-worker", kind="result", index=0, connection=0),)
        )
        backend = SocketTransportBackend(spawn="thread", fault_plan=plan)
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
        bitwise identically.  The restarts the workers never
        acknowledged cost no retries, so ``max_retries=0`` still
        finishes."""
        monkeypatch.setattr(
            socket_backend._Driver,
            "_thread_worker",
            staticmethod(lambda sock, plan, faults: sock.close()),
        )
        options = dict(CHAOS_OPTIONS, max_retries=0, heartbeat_interval=0.05)
        backend = SocketTransportBackend(spawn="thread")
        with pytest.warns(RuntimeWarning, match="drained"):
            result = run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options), backend=backend
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


class TestForkedWorkers:
    @pytest.mark.chaos
    def test_killed_worker_is_requeued_bitwise_equal_to_serial(
        self, coefficients, serial_baseline
    ):
        """A kill ends the forked worker's process mid-restart; the
        driver sees the connection close, requeues the restart on a
        fresh fork and still answers as serial does."""
        plan = FaultPlan(
            tuple(
                Fault("kill-worker", kind="result", connection=ordinal)
                for ordinal in (0, 1)
            )
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
            tuple(
                Fault("kill-worker", kind="result", connection=ordinal)
                for ordinal in range(3)
            )
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

    @pytest.mark.parametrize("spawn", ["fork", "thread"])
    def test_workers_anneal_the_callers_coefficients(
        self, coefficients, spawn
    ):
        """Workers inherit the plan, so coefficients that differ from a
        canonical rebuild are annealed as given, exactly as serially."""
        doctored = dataclasses.replace(coefficients, c1=coefficients.c1 * 2.0)
        serial = run_portfolio(
            doctored, NUM_SITES, SaOptions(**CHAOS_OPTIONS), backend="serial"
        )
        result = run_portfolio(
            doctored, NUM_SITES, SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(spawn=spawn),
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

        def connect(driver, ordinal, sock):
            drivers.append(driver)
            forked.set()  # the first worker is forked
            return real_connect(driver, ordinal, sock)

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
