"""The repository's benchmark: one run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload exact-disjoint --seed 1 \\
        --seconds 35 --trace 0

The program is imported from ``src/`` of the same checkout.  The run sets
up the workload several times (``setup_s`` is the import time plus the
median set-up), serves whole rounds of requests in a closed loop for
``--seconds``, checks every answer and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Throughput and latency are
those of the run's typical round (see :mod:`workloads`).  They and
``setup_s`` are given at nominal machine speed: the run times a fixed
reference task (:mod:`reference`) between rounds and scales every time by
how much slower or faster than nominal it ran, because a shared host's
speed drifts by a fifth over minutes.
The stdout line before the result gives the raw figures and that
slowdown.  ``--trace 1`` splits the timed loop in two halves, the first
untraced and the second with every layer's entry point wrapped
(:mod:`tracing`), and reports the per-layer metrics, including the
throughput of both halves, whose difference is the tracing overhead.
Each run also prints a machine fingerprint line with the time of a fixed
numpy reference kernel, so layer times can be compared across machines.
"""

import time

_STARTED = time.perf_counter()  # imports belong to setup_s

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: with two cores, BLAS worker threads spinning against
# the solver, the service's threads and the clients made run-to-run
# times noisier without making them faster.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Repetitions of the fixed numpy reference kernel (median reported).
KERNEL_REPEATS = 7


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-disjoint", "anneal-portfolio",
                                 "served-sweep"))
    parser.add_argument("--seed", type=int, default=20100116)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or fail."""
    package = SOURCE / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: the program's source {package} is missing")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve() != package:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {package}")


def reference_kernel_s() -> float:
    """Median time of a fixed single-threaded numpy kernel (sort, cumsum,
    elementwise arithmetic over one million floats)."""
    import numpy as np

    values = np.random.default_rng(0).random(1_000_000)
    times = []
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        np.sort(values)
        np.cumsum(values)
        np.sqrt(values * values + 1.0)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def fingerprint(kernel_s: float) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ref_kernel_s": kernel_s,
    }


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s: float, failed: int) -> dict:
    from workloads import quality_ratio

    attempted = len(run.samples)
    latencies = run.latencies()
    return {
        "throughput_rps": (run.throughput_rps(), "req/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "quality_ratio": (quality_ratio(run.samples), "ratio"),
        "correct_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s / run.slowdown, "s"),
    }


def per_layer(recorder, traced, untraced, kernel_s: float) -> dict:
    counters, calls, self_s = recorder.counters, recorder.calls, recorder.self_s
    reports = recorder.reports
    cache: dict[str, int] = {}
    for report in reports:
        for key, value in report.cache_stats.items():
            cache[key] = cache.get(key, 0) + value
    qp_results = [
        result
        for report in reports
        for result in (*report.stage_results, report.result)
        if "mip_gap" in result.metadata
    ]
    compressed = [report.metadata["compression_ratio"] for report in reports
                  if "compression_ratio" in report.metadata]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def mean(values: list[float]) -> float:
        return float(sum(values) / len(values)) if values else 0.0

    def hit_ratio(layer: str) -> float:
        hits = cache.get(f"{layer}_hits", 0)
        return ratio(hits, hits + cache.get(f"{layer}_misses", 0))

    advise_s = counters["api.advise_s"]
    # At nominal speed, so the two halves compare across a speed drift.
    traced_rps = traced.throughput_rps()
    untraced_rps = untraced.throughput_rps()
    stats = traced.service_stats
    waits = _queue_waits(recorder, traced)
    metrics = {
        "api.calls": (counters["api.calls"], "count"),
        "api.advise_s": (advise_s, "s"),
        "api.self_s": (self_s["api"], "s"),
        "coefficients.build_calls": (
            cache.get("coefficient_misses", 0)
            + counters["coefficients.direct_builds"], "count"),
        "coefficients.s": (self_s["coefficients"], "s"),
        "coefficients.hit_ratio": (hit_ratio("coefficient"), "ratio"),
        "compress.s": (self_s["compress"], "s"),
        "compress.ratio": (mean(compressed), "ratio"),
        "lift.s": (self_s["lift"], "s"),
        "linearize.calls": (calls["linearize"], "count"),
        "linearize.s": (self_s["linearize"], "s"),
        "linearize.hit_ratio": (hit_ratio("linearization"), "ratio"),
        "linearize.variables": (
            mean([r.metadata["variables"] for r in qp_results]), "count"),
        "linearize.constraints": (
            mean([r.metadata["constraints"] for r in qp_results]), "count"),
        "mip.to_arrays_s": (self_s["mip.to_arrays"], "s"),
        "mip.nnz": (ratio(counters["mip.nnz_total"], calls["mip.to_arrays"]),
                    "count"),
        "mip.highs_s": (self_s["mip.highs"], "s"),
        "mip.highs_calls": (calls["mip.highs"], "count"),
        "mip.nodes": (sum(r.metadata.get("nodes", 0) for r in qp_results),
                      "count"),
        "mip.gap_max": (max((r.metadata["mip_gap"] for r in qp_results),
                            default=0.0), "ratio"),
        "portfolio.runs": (calls["portfolio"], "count"),
        "portfolio.restarts": (counters["portfolio.restarts"], "count"),
        "portfolio.pruned": (counters["portfolio.pruned"], "count"),
        "portfolio.s": (self_s["portfolio"], "s"),
        "anneal.runs": (calls["anneal"], "count"),
        "anneal.s": (self_s["anneal"], "s"),
        "anneal.iterations": (counters["anneal.iterations"], "count"),
        "anneal.accept_ratio": (
            ratio(counters["anneal.accepted"], counters["anneal.iterations"]),
            "ratio"),
        "anneal.outer_loops": (counters["anneal.outer_loops"], "count"),
        "subsolve.y_greedy_calls": (calls["subsolve.y_greedy"], "count"),
        "subsolve.y_greedy_s": (self_s["subsolve.y_greedy"], "s"),
        "subsolve.x_greedy_calls": (calls["subsolve.x_greedy"], "count"),
        "subsolve.x_greedy_s": (self_s["subsolve.x_greedy"], "s"),
        "incremental.calls": (calls["incremental"], "count"),
        "incremental.s": (self_s["incremental"], "s"),
        "evaluator.calls": (calls["evaluator"], "count"),
        "evaluator.s": (self_s["evaluator"], "s"),
        "service.served": (stats.get("served", 0), "count"),
        "service.coalesced": (stats.get("coalesced", 0), "count"),
        "service.result_cache_hits": (stats.get("result_cache_hits", 0),
                                      "count"),
        "service.rejected": (
            stats.get("rejected_queue_full", 0)
            + stats.get("rejected_rate_limited", 0), "count"),
        "service.queue_wait_p50_s": (
            statistics.median(waits) if waits else 0.0, "s"),
        "service.solve_s": (advise_s if stats else 0.0, "s"),
        "service.codec_s": (sum(s.codec_s for s in traced.samples), "s"),
        "trace.attributed_frac": (1.0 - ratio(self_s["api"], advise_s),
                                  "ratio"),
        "trace.throughput_rps": (traced_rps, "req/s"),
        "trace.untraced_throughput_rps": (untraced_rps, "req/s"),
        "trace.overhead_frac": (1.0 - ratio(traced_rps, untraced_rps),
                                "ratio"),
        "machine.ref_kernel_s": (kernel_s, "s"),
        "machine.slowdown": (traced.slowdown, "ratio"),
    }
    return metrics


def _queue_waits(recorder, traced) -> list[float]:
    """Per served request: latency minus codec minus the server's solve of
    the same canonical key when that solve ran inside the request (a
    result-cache hit has none)."""
    if not traced.service_stats:
        return []
    solves: dict[str, list[tuple[float, float]]] = {}
    for key, started, ended in recorder.solves:
        solves.setdefault(key, []).append((started, ended))
    waits = []
    for sample in traced.answered:
        received = sample.sent + sample.latency_s
        solve_s = max(
            (ended - started
             for started, ended in solves.get(sample.template.key, ())
             if sample.sent <= started and ended <= received),
            default=0.0,
        )
        waits.append(max(0.0, sample.latency_s - sample.codec_s - solve_s))
    return waits


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_program()
    import scipy.optimize  # noqa: F401  (HiGHS)

    from workloads import SETUP_REPEATS, WORKLOADS, Checker

    import_s = time.perf_counter() - _STARTED
    kernel_s = reference_kernel_s()
    print("perfbench fingerprint " + json.dumps(fingerprint(kernel_s)),
          flush=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, args.seconds)
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setups)

    recorder = None
    if args.trace:
        from tracing import Recorder

        runs = [workload.run(args.seconds / 2)]
        recorder = Recorder(keyed=args.workload == "served-sweep")
        with recorder:
            runs.append(workload.run(args.seconds / 2, recorder))
    else:
        runs = [workload.run(args.seconds)]

    checker = Checker()
    failures = [message for run in runs for message in checker.check(run.samples)]
    attempted = sum(len(run.samples) for run in runs)
    for message in failures[:20]:
        print(f"perfbench check failed: {message}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(recorder, runs[1], runs[0], kernel_s)
    else:
        metrics = end_to_end(runs[0], setup_s, len(failures))
    run = runs[-1]
    raw = run.latencies(scaled=False)
    tail = sum(1 for value in raw if value > percentile(raw, 0.9))
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(run.samples)} requests in {len(run.round_s)} rounds "
          f"({' '.join(f'{seconds:.2f}' for seconds in run.round_s)} s); "
          f"percentiles over {len(raw)} latencies, {tail} of them above p90; "
          f"raw throughput {run.throughput_rps(scaled=False):.4f} req/s, "
          f"p50 {statistics.median(raw):.4f} s, "
          f"p90 {percentile(raw, 0.9):.4f} s; round slowdowns "
          f"{' '.join(f'{value:.3f}' for value in run.round_slowdowns())}, "
          f"slowdown {run.slowdown:.3f}", flush=True)
    # HiGHS logs through the C library's stdout; flush it first so the
    # result is the last line.
    ctypes.CDLL(None).fflush(None)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
