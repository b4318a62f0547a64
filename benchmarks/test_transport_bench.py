"""Bench smoke: socket-transport overhead and retry-storm throughput.

Drives the ``transport`` target end to end (runner dispatch included)
and asserts the shape of its contract: ratio-only reporting, a fault
storm that actually exercised the retry machinery (requeues and worker
failures observed), and a machine-readable ``BENCH_transport.json``
artifact.  Result *identity* under faults is asserted inside the bench
itself — and, exhaustively, by ``tests/test_transport.py``.
"""

from __future__ import annotations

import json

from benchmarks.conftest import run_and_print
from repro.bench.runner import run_table
from repro.bench.transport import ARTIFACT_ENV_VAR, ARTIFACT_NAME


def run_table_target(profile):
    return run_table("transport", profile)


def test_bench_transport_table(benchmark, profile, tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_ENV_VAR, str(tmp_path))
    table = run_and_print(benchmark, run_table_target, profile)

    # Ratios only: every reported number is dimensionless and positive.
    for row in table.rows:
        assert row["ratio"] > 0.0

    artifact = json.loads((tmp_path / ARTIFACT_NAME).read_text())
    assert artifact["bench"] == "transport"
    assert len(artifact["rows"]) == len(table.rows)
    # The storm must have exercised the fault machinery, not idled.
    assert artifact["storm"]["requeue_count"] >= 1
    assert artifact["storm"]["worker_failures"] >= 1
    assert artifact["storm"]["retried_restarts"] >= 1
