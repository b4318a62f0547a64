"""Bench target: socket-transport overhead and retry-storm throughput.

Answered as *ratios only* (absolute wall-clock is machine noise; the
ratios are what the transport design controls): the wall-clock of a
socket portfolio on two forked workers, clean and under a deterministic
fault storm (a worker killed mid-restart, a worker whose main thread
blocks), relative to each other and to the serial backend.  Every
variant returns the bitwise-identical best (asserted), so the ratios
isolate the cost of the transport and of fault *recovery*, not of
different work.

Besides the rendered table the run emits a ``BENCH_transport.json``
artifact (into ``REPRO_BENCH_ARTIFACT_DIR``, default: the working
directory) so successive runs leave a machine-readable trajectory.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable
from repro.costmodel.coefficients import build_coefficients
from repro.instances.random_gen import InstanceParameters, generate_instance
from repro.sa.options import SaOptions
from repro.sa.portfolio import run_portfolio
from repro.sa.transport import Fault, FaultPlan, SocketTransportBackend

#: Where the JSON artifact lands (default: the working directory).
ARTIFACT_ENV_VAR = "REPRO_BENCH_ARTIFACT_DIR"
ARTIFACT_NAME = "BENCH_transport.json"

NUM_SITES = 3

#: The deterministic fault storm of the throughput measurement: a
#: worker killed as it sends its first result, and one whose main
#: thread blocks at its third progress call — the two failures a
#: forked worker can suffer besides a restart that raises.
def _storm_plan() -> FaultPlan:
    return FaultPlan(
        (
            Fault("kill-worker", connection=1, index=0),
            Fault("block", connection=0, index=2),
        )
    )


def _bench_instance(seed: int):
    instance = generate_instance(
        InstanceParameters(
            name="transport-bench",
            num_transactions=6,
            num_tables=4,
            max_queries_per_transaction=3,
            update_percent=30.0,
            max_attributes_per_table=5,
            max_table_refs_per_query=2,
            max_attribute_refs_per_query=4,
            attribute_widths=(2.0, 8.0),
            max_frequency=5,
            max_rows=3,
        ),
        seed=seed,
    )
    return build_coefficients(instance)


def _portfolio_options(seed: int) -> SaOptions:
    return SaOptions(
        seed=seed,
        restarts=6,
        inner_loops=4,
        max_outer_loops=10,
        # Tight liveness tuning so the storm's recovery paths (not the
        # timeouts around them) dominate the measurement.
        heartbeat_timeout=0.8,
        backoff_base=0.01,
        max_retries=3,
        jobs=2,
    )


def _timed_portfolio(coefficients, options: SaOptions, backend):
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_portfolio(coefficients, NUM_SITES, options, backend=backend)
    return result, time.perf_counter() - started


def transport(profile: BenchProfile | None = None) -> BenchTable:
    """The runner-facing table; also writes the JSON artifact."""
    profile = profile or get_profile()
    coefficients = _bench_instance(profile.seed)
    options = _portfolio_options(profile.seed)

    serial_result, serial_wall = _timed_portfolio(
        coefficients, options, "serial"
    )
    clean_result, clean_wall = _timed_portfolio(
        coefficients, options, SocketTransportBackend()
    )
    storm_backend = SocketTransportBackend(fault_plan=_storm_plan())
    storm_result, storm_wall = _timed_portfolio(
        coefficients, options, storm_backend
    )

    # The whole point of the transport: identical results, any weather.
    for other in (clean_result, storm_result):
        assert other.objective6 == serial_result.objective6
        assert other.best_restart == serial_result.best_restart

    rows = [
        {
            "metric": "socket (clean) vs serial",
            "ratio": round(clean_wall / serial_wall, 3) if serial_wall else 1.0,
            "detail": "2 forked workers, 6 restarts",
        },
        {
            "metric": "socket (retry storm) vs socket (clean)",
            "ratio": round(storm_wall / clean_wall, 3) if clean_wall else 1.0,
            "detail": (
                f"storm: kill+block; {storm_result.requeue_count} "
                f"requeues, {storm_result.worker_failures} worker failures"
            ),
        },
        {
            "metric": "socket (retry storm) vs serial",
            "ratio": round(storm_wall / serial_wall, 3) if serial_wall else 1.0,
            "detail": "end-to-end price of faults + recovery",
        },
    ]
    table = BenchTable(
        title="Socket transport — overhead and retry-storm throughput "
        "(ratios only; identical results asserted)",
        columns=["metric", "ratio", "detail"],
        notes=[
            "all portfolio variants returned the bitwise-identical "
            "best-of-6 (asserted in the bench itself)",
        ],
    )
    for row in rows:
        table.add_row(**row)

    path = artifact_path()
    payload = {
        "bench": "transport",
        "profile": profile.name,
        "seed": profile.seed,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "rows": rows,
        "storm": {
            "requeue_count": storm_result.requeue_count,
            "retried_restarts": storm_result.retried_restarts,
            "worker_failures": storm_result.worker_failures,
        },
    }
    try:
        path.write_text(json.dumps(payload, indent=2) + "\n")
        table.notes.append(f"artifact written to {path}")
    except OSError as error:  # read-only CI checkouts keep the table
        table.notes.append(f"artifact not written ({error})")
    return table


def artifact_path() -> Path:
    """Where :func:`transport` writes its JSON artifact."""
    return Path(os.environ.get(ARTIFACT_ENV_VAR, ".")) / ARTIFACT_NAME
