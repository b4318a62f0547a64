"""Command-line interface.

Installed as ``repro-partition`` (also ``python -m repro``):

* ``repro-partition info tpcc`` — instance statistics,
* ``repro-partition advise --instance tpcc --sites 3 --solver qp`` —
  compute and print a partitioning (``--solver`` takes any registered
  strategy: ``qp``, ``sa``, ``sa-portfolio``, ``auto``, the baselines,
  or a ``->`` chain such as ``sa-portfolio->qp``),
* ``repro-partition advise --schema schema.sql --workload load.sql ...``
  — partition a user-supplied SQL workload,
* ``repro-partition bench table3`` — regenerate a paper table,
* ``repro-partition report BENCH_calibration.json`` — render any
  persisted ``BENCH_*.json`` benchmark artifact as a publication-grade
  markdown or LaTeX table,
* ``repro-partition worker --connect HOST:PORT`` — serve as a remote
  restart worker for an advisor running ``--backend socket``,
* ``repro-partition serve`` — run the async advisor service
  (coalescing, admission control, load shedding) on loopback TCP,
* ``repro-partition request --connect HOST:PORT ...`` — solve one
  request against a running service (same solve flags as ``advise``).

Every solve is served through :func:`repro.api.advise`, the same
entry point the benchmarks, sweeps and library callers use.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import Advisor, SolveRequest, default_registry
from repro.bench.config import get_profile
from repro.bench.runner import TABLE_FUNCTIONS, run_table
from repro.bench.formatting import render_table
from repro.costmodel.config import CostParameters
from repro.exceptions import ReproError
from repro.instances.library import instance_catalog, named_instance
from repro.model.statistics import describe_instance
from repro.partition.assignment import single_site_partitioning
from repro.partition.layout import layout_summary, render_layout
from repro.sqlio.workload_loader import load_instance_from_sql

#: Strategies that understand --restarts/--jobs (SA portfolio knobs).
_PORTFOLIO_STRATEGIES = ("sa", "sa-portfolio", "auto")


def _load_instance(args: argparse.Namespace):
    if args.schema or args.workload:
        if not (args.schema and args.workload):
            raise ReproError("--schema and --workload must be given together")
        schema_sql = Path(args.schema).read_text()
        workload_sql = Path(args.workload).read_text()
        return load_instance_from_sql(
            schema_sql, workload_sql, name=Path(args.workload).stem
        )
    return named_instance(args.instance)


def _cmd_info(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    stats = describe_instance(instance)
    for key, value in stats.as_dict().items():
        print(f"{key:>12}: {value}")
    return 0


def _advise_request(
    args: argparse.Namespace, instance, parameters: CostParameters
) -> SolveRequest:
    """Map the CLI flags onto one :class:`SolveRequest`."""
    strategy = args.solver
    stages = [part.strip() for part in strategy.split("->")]
    registry = default_registry()
    for stage in stages:
        if stage not in registry:
            raise ReproError(
                f"unknown solver {stage!r}; registered: "
                f"{', '.join(registry.names())}"
            )
    time_limit = args.time_limit
    portfolio = {}
    if args.restarts is not None:
        portfolio["restarts"] = args.restarts
    if args.jobs is not None:
        portfolio["jobs"] = args.jobs
    if args.backend is not None:
        portfolio["backend"] = args.backend
    if args.workers is not None:
        portfolio["workers"] = args.workers

    if "restarts" in portfolio and not any(
        stage in _PORTFOLIO_STRATEGIES or stage == "hillclimb"
        for stage in stages
    ):
        raise ReproError(
            "--restarts configures the SA multi-start portfolio (or the "
            "hillclimb baseline); use an SA-family solver with it"
        )
    for flag, key in (
        ("--jobs", "jobs"),
        ("--backend", "backend"),
        ("--workers", "workers"),
    ):
        if key in portfolio and not any(
            stage in _PORTFOLIO_STRATEGIES for stage in stages
        ):
            raise ReproError(
                f"{flag} configures the SA multi-start portfolio; use an "
                f"SA-family solver with it"
            )

    def stage_options(stage: str) -> dict:
        if stage in _PORTFOLIO_STRATEGIES:
            return dict(portfolio)
        if stage == "hillclimb" and "restarts" in portfolio:
            return {"restarts": args.restarts}
        if stage in ("qp", "qp-heavy") and time_limit is None:
            # The CLI's historical implicit MIP budget, scoped to the
            # stage so SA stages of a chain stay unbudgeted (and hence
            # deterministic per fixed seed).
            return {"time_limit": 60.0}
        return {}

    if len(stages) == 1:
        options = stage_options(stages[0])
    else:
        options = {stage: stage_options(stage) for stage in stages}
    if args.compress_tolerance is not None and args.compress != "lossy":
        raise ReproError(
            "--compress-tolerance only applies to --compress lossy"
        )
    current_layout = None
    if args.current_layout is not None:
        from repro.partition.current_layout import CurrentLayout

        current_layout = CurrentLayout.from_json(
            Path(args.current_layout).read_text()
        )
    elif args.migration_cost:
        raise ReproError(
            "--migration-cost needs --current-layout (the incumbent the "
            "move cost is measured against)"
        )
    return SolveRequest(
        instance=instance,
        num_sites=args.sites,
        parameters=parameters,
        allow_replication=not args.disjoint,
        strategy=strategy,
        options=options,
        seed=args.seed,
        time_limit=time_limit,
        compression=args.compress,
        compression_tolerance=(
            args.compress_tolerance if args.compress_tolerance is not None
            else 0.0
        ),
        current_layout=current_layout,
        migration_cost=args.migration_cost,
    )


def _solve_parameters(args: argparse.Namespace) -> CostParameters:
    return CostParameters(
        network_penalty=args.penalty,
        # The flag is the load-balance *priority*; the model's lambda
        # weights cost (see DESIGN.md on the paper's inverted notation).
        load_balance_lambda=1.0 - args.load_balance,
    )


def _print_report(args: argparse.Namespace, instance, report, baseline) -> None:
    result = report.result
    reduction = 100.0 * (1.0 - result.objective / baseline.objective)
    print(f"instance      : {instance.name}")
    print(f"solver        : {result.solver} ({result.wall_time:.2f}s)")
    if report.degraded_from is not None:
        print(f"shedding      : degraded from {report.degraded_from} "
              f"(service was under queue pressure)")
    if report.strategy != args.solver:
        print(f"strategy      : {args.solver} -> resolved {report.strategy}")
    if result.metadata.get("auto_source") == "calibration":
        print(f"calibrated    : routed by "
              f"{result.metadata.get('auto_calibration_observations', 0)} "
              f"recorded observations")
    if result.metadata.get("restarts", 1) > 1:
        requeued = result.metadata.get("requeue_count", 0)
        print(
            f"portfolio     : best-of-{result.metadata['restarts']} "
            f"(restart {result.metadata['best_restart']} won, "
            f"jobs={result.metadata['jobs']}, "
            f"{result.metadata['executor']} executor"
            + (f", {requeued} requeued after faults" if requeued else "")
            + ")"
        )
    if args.compress != "off":
        ratio = result.metadata.get("compression_ratio", 1.0)
        skipped = result.metadata.get("compression_skipped")
        if skipped:
            print(f"compression   : skipped ({skipped})")
        elif ratio > 1.0:
            bound = result.metadata.get("objective_error_bound", 0.0)
            print(
                f"compression   : {args.compress} "
                f"{result.metadata['original_transactions']} -> "
                f"{result.metadata['compressed_transactions']} transactions "
                f"({ratio:.1f}x, error bound {bound:.0f})"
            )
        else:
            print(f"compression   : {args.compress} (nothing to merge)")
    print(f"sites         : {args.sites}")
    print(f"objective (4) : {result.objective:.0f}")
    print(f"single-site   : {baseline.objective:.0f}  (reduction {reduction:.1f}%)")
    print(f"replication   : {result.replication_factor:.2f} replicas/attribute")
    print()
    print(layout_summary(result))
    if args.layout:
        print()
        print(render_layout(result))


def _load_calibration(args: argparse.Namespace):
    """The persisted calibration table named by ``--calibration``.

    A missing file is an empty table (first run of a growing history);
    a corrupt or unknown-version file is a hard error — silently
    starting over would discard the recorded performance history.
    """
    if args.calibration is None:
        return None
    from repro.calibration import CalibrationTable

    path = Path(args.calibration)
    if not path.exists():
        return CalibrationTable()
    return CalibrationTable.load(path)


def _cmd_advise(args: argparse.Namespace) -> int:
    if args.record_calibration and args.calibration is None:
        raise ReproError(
            "--record-calibration needs --calibration (the table file "
            "the observation is appended to)"
        )
    instance = _load_instance(args)
    parameters = _solve_parameters(args)
    calibration = _load_calibration(args)
    advisor = Advisor(calibration=calibration)
    coefficients = advisor.coefficient_cache(instance).coefficients(parameters)
    baseline = single_site_partitioning(coefficients)
    # No implicit SA budget: without an explicit --time-limit every
    # restart runs to completion, keeping fixed-seed runs deterministic;
    # with one, it bounds the whole solve (QP limit defaults to 60s).
    report = advisor.advise(_advise_request(args, instance, parameters))
    _print_report(args, instance, report, baseline)
    if calibration is not None and args.record_calibration:
        calibration.save(args.calibration)
        print(f"calibration   : {len(calibration)} observations -> "
              f"{args.calibration}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a persisted ``BENCH_*.json`` artifact as tables."""
    from repro.reporting import RENDERERS, load_artifact, write_report

    artifact = load_artifact(args.artifact)
    formats = (
        tuple(RENDERERS) if args.format == "both" else (args.format,)
    )
    if args.output is None:
        for name in formats:
            print(RENDERERS[name](artifact))
        return 0
    written = write_report(
        artifact, args.output, stem=Path(args.artifact).stem, formats=formats
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the advisor service (the flags of ``python -m repro.service``)."""
    from repro.service.__main__ import run

    return run(args)


def _cmd_request(args: argparse.Namespace) -> int:
    """Solve one request against a running advisor service."""
    from repro.service.client import ServiceClient

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(
            f"--connect takes HOST:PORT, got {args.connect!r}"
        )
    instance = _load_instance(args)
    parameters = _solve_parameters(args)
    request = _advise_request(args, instance, parameters)
    with ServiceClient(host, int(port), client=args.client) as service:
        report = service.advise(request)
    # The client-side report carries canonically rebuilt coefficients;
    # the baseline comes from those, exactly as advise computes it.
    baseline = single_site_partitioning(report.result.coefficients)
    _print_report(args, instance, report, baseline)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Delegate to ``python -m repro.sa.worker`` (same flags)."""
    from repro.sa.worker import main as worker_main

    argv = ["--connect", args.connect]
    if args.fault_plan:
        argv += ["--fault-plan", args.fault_plan]
    return worker_main(argv)


def _cmd_bench(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    for target in args.targets:
        table = run_table(target, profile)
        print(render_table(table))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.service.__main__ import add_service_arguments

    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Vertical partitioning advisor (Amossen, ICDE 2010 "
        "reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--instance", default="tpcc",
            help=f"named instance ({', '.join(instance_catalog()[:4])}, ...)",
        )
        sub.add_argument("--schema", help="path to CREATE TABLE SQL")
        sub.add_argument("--workload", help="path to annotated DML SQL")

    info = subparsers.add_parser("info", help="print instance statistics")
    add_instance_args(info)
    info.set_defaults(func=_cmd_info)

    def add_solve_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--sites", type=int, default=2)
        sub.add_argument("--solver", default="sa",
                            help="registered strategy: qp, sa, sa-portfolio, "
                            "auto (model-size cutoff picks qp or sa), greedy, "
                            "affinity, hillclimb, round-robin — or a chain "
                            "like 'sa-portfolio->qp' where each stage "
                            "warm-starts the next (default: sa)")
        sub.add_argument("--penalty", type=float, default=8.0,
                            help="network penalty p (0 = local placement)")
        sub.add_argument("--load-balance", type=float, default=0.1,
                            help="load-balance priority in [0,1]: 0 = pure "
                            "cost minimisation, 1 = pure max-load balancing "
                            "(the paper's Section-5 setting is 0.1)")
        sub.add_argument("--disjoint", action="store_true",
                            help="forbid attribute replication")
        sub.add_argument("--time-limit", type=float, default=None,
                            help="wall-clock budget in seconds: caps the QP "
                            "solve (default 60) or, with --restarts > 1, the "
                            "whole SA portfolio (default: no budget — "
                            "truncation would make fixed-seed runs "
                            "machine-dependent)")
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--restarts", type=int, default=None,
                            help="SA multi-start portfolio size: run N "
                            "independently seeded anneals and keep the best "
                            "(deterministic for a fixed --seed; --time-limit "
                            "bounds the whole portfolio)")
        sub.add_argument("--jobs", type=int, default=None,
                            help="worker processes for --restarts > 1 "
                            "(results are identical for any value, only "
                            "wall-clock changes)")
        sub.add_argument("--backend", default=None,
                            help="portfolio execution backend: serial, "
                            "process, thread or socket (default: "
                            "serial for one worker slot, process otherwise; "
                            "results are identical whatever the backend — "
                            "socket drives spawned "
                            "'python -m repro.sa.worker' processes over "
                            "loopback TCP with heartbeat liveness and "
                            "bounded retries, or runs the task envelopes "
                            "in-driver with --workers 0)")
        sub.add_argument("--workers", type=int, default=None,
                            help="worker processes for --backend socket "
                            "(default: the --jobs slots; 0 = degraded "
                            "in-driver mode; results identical either way)")
        sub.add_argument("--compress", choices=("off", "lossless", "lossy"),
                            default="off",
                            help="compress the workload before solving: "
                            "lossless merges bit-identical transaction "
                            "signatures (objective provably unchanged under "
                            "pure cost minimisation), lossy also merges "
                            "near-duplicates within --compress-tolerance; "
                            "the reported objective is always re-evaluated "
                            "on the original instance")
        sub.add_argument("--compress-tolerance", type=float, default=None,
                            help="lossy-tier error budget as a fraction of "
                            "the single-site cost (requires --compress "
                            "lossy)")
        sub.add_argument("--current-layout", default=None, metavar="JSON",
                            help="path to the incumbent layout (the JSON "
                            "document CurrentLayout.to_json writes): the "
                            "objective gains the one-time --migration-cost "
                            "move term and SA warm-starts from it")
        sub.add_argument("--migration-cost", type=float, default=0.0,
                            help="per-byte weight of moving attribute data "
                            "to a replica the incumbent lacks (requires "
                            "--current-layout; 0 = the layout only seeds "
                            "the warm start)")
        sub.add_argument("--layout", action="store_true",
                            help="print the full Table-4-style layout")
    advise = subparsers.add_parser("advise", help="compute a partitioning")
    add_instance_args(advise)
    add_solve_args(advise)
    advise.add_argument("--calibration", default=None, metavar="JSON",
                        help="persisted calibration table (the document "
                        "CalibrationTable.to_json writes, or the one "
                        "embedded in BENCH_calibration.json's "
                        "'calibration' key after extraction): 'auto' "
                        "routes on its recorded evidence instead of the "
                        "model-size cutoff alone; a missing file is an "
                        "empty table, a corrupt one is an error")
    advise.add_argument("--record-calibration", action="store_true",
                        help="after solving, append this solve's "
                        "observation to --calibration and save it back "
                        "(grows the table run over run)")
    advise.set_defaults(func=_cmd_advise)

    bench = subparsers.add_parser("bench", help="regenerate paper tables")
    bench.add_argument("targets", nargs="+", choices=list(TABLE_FUNCTIONS))
    bench.add_argument("--profile", choices=("quick", "paper"), default=None)
    bench.set_defaults(func=_cmd_bench)

    report = subparsers.add_parser(
        "report",
        help="render a persisted BENCH_*.json artifact as publication "
        "tables (markdown / LaTeX)",
    )
    report.add_argument("artifact", metavar="BENCH_JSON",
                        help="path to a BENCH_*.json benchmark artifact")
    report.add_argument("--format", choices=("markdown", "latex", "both"),
                        default="markdown",
                        help="rendering(s) to produce (default: markdown)")
    report.add_argument("--output", default=None, metavar="DIR",
                        help="write <artifact-stem>.md/.tex files into DIR "
                        "instead of printing to stdout")
    report.set_defaults(func=_cmd_report)

    worker = subparsers.add_parser(
        "worker",
        help="run as a socket-transport restart worker "
        "(one box of a multi-box portfolio)",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="driver address to dial")
    worker.add_argument("--fault-plan", default=None, metavar="JSON",
                        help="JSON FaultPlan for the chaos test suite "
                        "(worker-side actions only)")
    worker.set_defaults(func=_cmd_worker)

    serve = subparsers.add_parser(
        "serve",
        help="run the async advisor service (request coalescing, "
        "admission control, load shedding) on loopback TCP",
    )
    add_service_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    request = subparsers.add_parser(
        "request",
        help="solve one request against a running advisor service "
        "(same solve flags as advise)",
    )
    request.add_argument("--connect", required=True, metavar="HOST:PORT",
                         help="service address to dial")
    request.add_argument("--client", default=None,
                         help="client id for per-client rate limiting "
                         "(default: one per connection)")
    add_instance_args(request)
    add_solve_args(request)
    request.set_defaults(func=_cmd_request)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
