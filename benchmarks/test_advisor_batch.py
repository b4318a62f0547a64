"""Bench smoke: one ``advise_many`` batch through the bench runner.

Drives the ``advisor_batch`` target end to end (runner dispatch included)
and asserts the outcomes that are stable on the single-core CI
container: the cache-hit ratio of the shared coefficient cache and
determinism of the batch per master seed regardless of ``jobs`` — never
wall-clock parallelism.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_and_print
from repro.bench.advisor_batch import build_batch, run_batch
from repro.bench.runner import run_table


def test_bench_advisor_batch_table(benchmark, profile):
    table = run_and_print(benchmark, run_table_target, profile)
    assert len(table.rows) == 10
    assert any("coefficient cache" in note for note in table.notes)


def run_table_target(profile):
    return run_table("advisor_batch", profile)


def test_advisor_batch_cache_hit_ratios(profile):
    reports, advisor = run_batch(profile)
    assert len(reports) == len(build_batch(profile)) == 10
    stats = advisor.cache_stats()
    # Replicated/disjoint twins share each penalty's coefficients, and
    # the two SA requests reuse penalties already built -> >= 50% hits.
    coefficient_total = stats["coefficient_hits"] + stats["coefficient_misses"]
    assert stats["coefficient_hits"] / coefficient_total >= 0.5


def test_advisor_batch_deterministic_regardless_of_jobs(profile):
    serial_reports, _ = run_batch(profile, jobs=1)
    pooled_reports, _ = run_batch(profile, jobs=2)
    for serial, pooled in zip(serial_reports, pooled_reports):
        assert serial.objective == pooled.objective
        np.testing.assert_array_equal(serial.x, pooled.x)
        np.testing.assert_array_equal(serial.y, pooled.y)
