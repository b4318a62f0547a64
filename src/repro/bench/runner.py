"""Dispatch and CLI entry point for the benchmark harness."""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro.bench import (
    ablations,
    advisor_batch,
    calibrate,
    compression,
    drift,
    service,
    tables,
    transport,
)
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable, render_table
from repro.exceptions import ReproError

TABLE_FUNCTIONS: dict[str, Callable[[BenchProfile | None], BenchTable]] = {
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
    "table4": tables.table4,
    "table5": tables.table5,
    "table6": tables.table6,
    "ablation_write_accounting": ablations.ablation_write_accounting,
    "ablation_reduction": ablations.ablation_reduction,
    "ablation_heavy": ablations.ablation_heavy,
    "ablation_latency": ablations.ablation_latency,
    "ablation_baselines": ablations.ablation_baselines,
    "advisor_batch": advisor_batch.advisor_batch,
    "calibrate": calibrate.calibrate,
    "compression": compression.compression,
    "drift": drift.drift,
    "service": service.service,
    "transport": transport.transport,
}


def run_table(name: str, profile: BenchProfile | None = None) -> BenchTable:
    """Regenerate one paper table / ablation by name."""
    try:
        function = TABLE_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(TABLE_FUNCTIONS)
        raise ReproError(f"unknown bench target {name!r}; known: {known}") from None
    return function(profile)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.bench <target> [<target> ...|all]")
        print("targets:", ", ".join(TABLE_FUNCTIONS))
        return 0
    targets = list(TABLE_FUNCTIONS) if argv == ["all"] else argv
    profile = get_profile()
    sa_options = profile.sa_options
    portfolio = ""
    if sa_options.restarts > 1:
        portfolio = (
            f" (SA portfolio: best-of-{sa_options.restarts}, "
            f"jobs={sa_options.effective_jobs})"
        )
    elif sa_options.jobs is not None and sa_options.jobs > 1:
        # jobs without restarts is a no-op; say so instead of implying
        # a portfolio ran.
        portfolio = (
            f" (REPRO_BENCH_JOBS={sa_options.jobs} ignored: "
            f"set REPRO_BENCH_RESTARTS > 1 for a portfolio)"
        )
    print(f"# bench profile: {profile.name}{portfolio}")
    for target in targets:
        started = time.perf_counter()
        table = run_table(target, profile)
        elapsed = time.perf_counter() - started
        print()
        print(render_table(table))
        print(f"[{target} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
