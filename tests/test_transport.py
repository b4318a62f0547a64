"""Fault-tolerant socket transport: protocol, fault harness, chaos parity.

Pins the PR acceptance contract: length-prefixed frames round-trip and
reject garbage, the connect-time version handshake fails loudly on
mismatch, the deterministic fault harness replays its schedule exactly,
and — the headline — the socket portfolio returns a best that is
bitwise identical to :class:`~repro.sa.backends.serial.SerialBackend`
under *every* fault schedule.
"""

import json
import os
import socket as socket_module
import threading

import numpy as np
import pytest

from repro.api.advisor import advise
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.exceptions import (
    ConnectionClosedError,
    OptionsError,
    SolverError,
    TransportError,
)
from repro.sa.backends import QueueWorker, backend_names, get_backend
from repro.sa.backends.queue import ENVELOPE_FORMAT_VERSION
from repro.sa.options import SaOptions
from repro.sa.portfolio import run_portfolio
from repro.sa.transport import (
    Endpoint,
    Fault,
    FaultPlan,
    FaultyEndpoint,
    SocketTransportBackend,
    negotiate_client,
    negotiate_server,
)
from repro.sa.transport import protocol, socket_backend
from repro.sa.transport.faults import FaultInjected
from repro.sa.transport.protocol import (
    KIND_ERROR,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_HELLO_ACK,
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
        frame = encode_frame(KIND_TASK, task_id="3:0", restart=3, envelope="{}")
        payload = decode_payload(frame[4:])
        assert payload == {
            "kind": KIND_TASK,
            "task_id": "3:0",
            "restart": 3,
            "envelope": "{}",
        }

    def test_identical_messages_are_identical_bytes(self):
        """Sorted-key dumps: the fault harness can target 'the third
        RESULT frame' only because equal payloads encode equally."""
        a = encode_frame(KIND_RESULT, restart=1, envelope="e", task_id="1:0")
        b = encode_frame(KIND_RESULT, task_id="1:0", envelope="e", restart=1)
        assert a == b

    def test_oversize_frame_refused_on_send(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 32)
        with pytest.raises(TransportError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame(KIND_TASK, envelope="x" * 64)

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
            frame = encode_frame(KIND_RESULT, restart=2, envelope="abc")
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
# Version negotiation
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_happy_path_picks_shared_version(self):
        driver, worker = endpoint_pair()
        outcome = {}

        def client():
            outcome["ack"] = negotiate_client(
                worker, ENVELOPE_FORMAT_VERSION, timeout=5.0
            )

        thread = threading.Thread(target=client)
        thread.start()
        try:
            chosen = negotiate_server(
                driver,
                ENVELOPE_FORMAT_VERSION,
                timeout=5.0,
                heartbeat_interval=0.25,
            )
            thread.join(timeout=5.0)
            assert chosen == protocol.PROTOCOL_VERSION
            ack = outcome["ack"]
            assert ack["kind"] == KIND_HELLO_ACK
            assert ack["protocol_version"] == chosen
            assert ack["heartbeat_interval"] == 0.25
        finally:
            driver.close()
            worker.close()

    def test_no_shared_protocol_version_sends_error_frame(self):
        driver, worker = endpoint_pair()
        try:
            worker.send(
                KIND_HELLO,
                protocol_versions=[999],
                envelope_version=ENVELOPE_FORMAT_VERSION,
            )
            with pytest.raises(TransportError, match="no shared protocol"):
                negotiate_server(driver, ENVELOPE_FORMAT_VERSION, timeout=5.0)
            # The worker is told *why* before the socket dies.
            error = worker.recv(timeout=1.0)
            assert error["kind"] == KIND_ERROR
            assert "no shared protocol" in error["message"]
        finally:
            driver.close()
            worker.close()

    def test_envelope_version_mismatch_sends_error_frame(self):
        driver, worker = endpoint_pair()
        try:
            worker.send(
                KIND_HELLO,
                protocol_versions=list(protocol.SUPPORTED_PROTOCOL_VERSIONS),
                envelope_version=ENVELOPE_FORMAT_VERSION + 1,
            )
            with pytest.raises(TransportError, match="envelope format version"):
                negotiate_server(driver, ENVELOPE_FORMAT_VERSION, timeout=5.0)
            error = worker.recv(timeout=1.0)
            assert error["kind"] == KIND_ERROR
        finally:
            driver.close()
            worker.close()

    def test_client_raises_on_rejection(self):
        driver, worker = endpoint_pair()
        try:
            driver.send(KIND_ERROR, message="not today")
            with pytest.raises(TransportError, match="driver rejected"):
                negotiate_client(worker, ENVELOPE_FORMAT_VERSION, timeout=5.0)
        finally:
            driver.close()
            worker.close()


# ----------------------------------------------------------------------
# Fault plans and the faulty endpoint
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            (
                Fault("drop", kind="result", index=1, connection=0),
                Fault("kill-worker", kind="result", index=0, connection=1),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_garbage(self):
        for text in ("not json", "{}", '{"faults": [{"action": "sabotage"}]}'):
            with pytest.raises(OptionsError):
                FaultPlan.from_json(text)

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
            sender.send(KIND_TASK, task_id="0:0", restart=0, envelope="{}")
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
                worker.send(KIND_RESULT, restart=0, envelope="{}")
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
        assert "socket" in backend_names()
        assert isinstance(get_backend("socket"), SocketTransportBackend)
        assert SaOptions(backend="socket").backend == "socket"

    def test_invalid_construction(self):
        with pytest.raises(OptionsError, match="spawn"):
            SocketTransportBackend(spawn="carrier-pigeon")
        with pytest.raises(OptionsError, match="workers"):
            SocketTransportBackend(workers=-1)


# ----------------------------------------------------------------------
# Clean-weather parity (every spawn mode, no faults)
# ----------------------------------------------------------------------
class TestCleanParity:
    def test_thread_spawn_matches_serial(self, coefficients, serial_baseline):
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(workers=2, spawn="thread"),
        )
        assert_bitwise_identical(result, serial_baseline)
        assert result.executor == "socket"
        assert result.requeue_count == 0
        assert result.worker_failures == 0

    def test_process_spawn_matches_serial(self, coefficients, serial_baseline):
        """One real ``python -m repro.sa.worker`` subprocess round trip."""
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(workers=2, spawn="process"),
        )
        assert_bitwise_identical(result, serial_baseline)

    def test_workers_zero_is_explicit_degraded_mode(
        self, coefficients, serial_baseline
    ):
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(**CHAOS_OPTIONS),
            backend=SocketTransportBackend(workers=0),
        )
        assert_bitwise_identical(result, serial_baseline)

    def test_workers_option_flows_from_sa_options(
        self, coefficients, serial_baseline
    ):
        """``SaOptions(workers=...)`` reaches the registry-constructed
        backend (the CLI's ``--workers`` path)."""
        result = run_portfolio(
            coefficients,
            NUM_SITES,
            SaOptions(workers=0, backend="socket", **CHAOS_OPTIONS),
        )
        assert_bitwise_identical(result, serial_baseline)


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
            workers=2,
            spawn="thread",
            fault_plan=CHAOS_PLANS[name],
            connect_timeout=5.0,
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
            workers=2,
            spawn="thread",
            fault_plan=CHAOS_PLANS["storm"],
            connect_timeout=5.0,
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
        options = dict(CHAOS_OPTIONS, max_retries=0, restarts=2)
        plan = FaultPlan(
            (Fault("kill-worker", kind="result", index=0, connection=0),)
        )
        backend = SocketTransportBackend(
            workers=1, spawn="thread", fault_plan=plan, connect_timeout=5.0
        )
        with pytest.raises(
            SolverError, match=r"socket worker failed restart \d+"
        ):
            run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options), backend=backend
            )

    def test_drained_pool_degrades_to_in_driver_execution(
        self, coefficients, serial_baseline, monkeypatch
    ):
        """When no worker ever connects and the spawn budget is spent,
        the driver warns and finishes the portfolio itself — bitwise
        identically."""
        monkeypatch.setattr(
            socket_backend._Driver,
            "_thread_worker",
            staticmethod(lambda host, port, faults: None),
        )
        options = dict(CHAOS_OPTIONS, max_retries=0, heartbeat_interval=0.05)
        backend = SocketTransportBackend(
            workers=2, spawn="thread", connect_timeout=0.2
        )
        with pytest.warns(RuntimeWarning, match="drained"):
            result = run_portfolio(
                coefficients, NUM_SITES, SaOptions(**options), backend=backend
            )
        assert_bitwise_identical(result, serial_baseline)


# ----------------------------------------------------------------------
# Worker failures in the in-driver loop (workers=0)
# ----------------------------------------------------------------------
class FlakyWorker(QueueWorker):
    """Raises the first ``failures_per_restart`` times a restart runs."""

    def __init__(self, failures_per_restart: dict[int, int]):
        self.failures_per_restart = dict(failures_per_restart)
        self.seen: list[int] = []

    def run(self, envelope: str) -> str:
        restart = json.loads(envelope)["restart"]
        self.seen.append(restart)
        if self.failures_per_restart.get(restart, 0) > 0:
            self.failures_per_restart[restart] -= 1
            raise RuntimeError(f"injected fault on restart {restart}")
        return super().run(envelope)


@pytest.mark.chaos
class TestInDriverFaults:
    """A worker that raises mid-restart in the driver's own envelope
    loop: the restart goes to the back of the queue, bounded by
    ``max_retries``, and the result stays bitwise equal to serial."""

    def test_failed_restart_is_requeued_and_deterministic(
        self, coefficients, serial_baseline, monkeypatch
    ):
        worker = FlakyWorker({1: 1, 2: 2})
        monkeypatch.setattr(socket_backend, "QueueWorker", lambda: worker)
        portfolio = run_portfolio(
            coefficients, NUM_SITES,
            SaOptions(**dict(CHAOS_OPTIONS, max_retries=2)),
            backend=SocketTransportBackend(workers=0),
        )

        # every restart completed despite the mid-restart faults ...
        assert len(portfolio.outcomes) == 4
        assert portfolio.retried_restarts == 2
        assert portfolio.requeue_count == 3
        assert portfolio.worker_failures == 3
        # ... the failed tasks went to the back of the queue ...
        assert worker.seen == [0, 1, 2, 3, 1, 2, 2]
        # ... and the best is bitwise identical to the serial reference.
        reference = serial_baseline
        assert_bitwise_identical(portfolio, reference)
        assert portfolio.restart_objectives == reference.restart_objectives

    def test_exhausted_retries_raise(self, coefficients, monkeypatch):
        worker = FlakyWorker({0: 99})
        monkeypatch.setattr(socket_backend, "QueueWorker", lambda: worker)
        with pytest.raises(
            SolverError, match="socket worker failed restart 0 2 times"
        ):
            run_portfolio(
                coefficients, NUM_SITES,
                SaOptions(**dict(CHAOS_OPTIONS, max_retries=1, restarts=2)),
                backend=SocketTransportBackend(workers=0),
            )


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
                    backend="socket", workers=0,
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
