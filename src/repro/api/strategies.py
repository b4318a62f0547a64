"""Built-in strategies: registry adapters over the existing solvers.

Each adapter normalises one solver family behind the uniform
``(request, context) -> PartitioningResult`` shape and is pinned by test
to return results bitwise identical to the solver's direct entry point
at the same seeds.  ``"auto"`` implements the paper's Section VI
scalability cutoff: requests whose linearised model stays small go to
the exact QP solver, everything larger goes to simulated annealing.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING

from repro.api.registry import SolverRegistry, StrategyContext
from repro.api.report import SolveReport
from repro.api.request import SolveRequest
from repro.costmodel.config import WriteAccounting
from repro.exceptions import OptionsError
from repro.partition.assignment import PartitioningResult, single_site_partitioning
from repro.qp.solver import PAPER_GAP, QpPartitioner
from repro.reduction.compress import (
    compress_instance,
    compress_result,
    lift_result,
)
from repro.sa.options import SaOptions
from repro.sa.solver import SaPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.advisor import Advisor

#: "auto" sends a request to the QP solver only while the linearised
#: model stays below this many variables; beyond it, solve times blow up
#: (the paper's Table 3 t/o rows) and SA is the sensible default.
AUTO_QP_VARIABLE_CUTOFF = 20_000

#: Default portfolio size for the "sa-portfolio" strategy.
DEFAULT_PORTFOLIO_RESTARTS = 4

_QP_OPTION_KEYS = frozenset(
    {"gap", "latency", "symmetry_breaking", "time_limit"}
)
_SA_OPTION_KEYS = frozenset(
    field.name for field in dataclasses.fields(SaOptions)
)
_HILLCLIMB_OPTION_KEYS = frozenset({"restarts", "max_rounds"})


def _check_options(request: SolveRequest, allowed: frozenset[str], name: str) -> None:
    unknown = set(request.options) - allowed
    if unknown:
        raise OptionsError(
            f"strategy {name!r} got unknown options {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _require_replication(request: SolveRequest, name: str) -> None:
    if not request.allow_replication:
        raise OptionsError(
            f"strategy {name!r} cannot produce disjoint partitionings; "
            f"use 'qp' or 'sa' with allow_replication=False"
        )


def qp_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """The exact solver: linearised model (7) via HiGHS."""
    _check_options(request, _QP_OPTION_KEYS, "qp")
    options = request.options
    partitioner = QpPartitioner(
        context.coefficients,
        request.num_sites,
        allow_replication=request.allow_replication,
        latency=bool(options.get("latency", False)),
        symmetry_breaking=bool(options.get("symmetry_breaking", True)),
    )
    return partitioner.solve(
        # A stage-scoped options["time_limit"] overrides the request's
        # (chain-wide) budget — e.g. the CLI's implicit 60s MIP cap.
        time_limit=options.get("time_limit", request.time_limit),
        gap=float(options.get("gap", PAPER_GAP)),
        warm_start=context.warm_start,
    )


def _sa_options_from(request: SolveRequest, restarts_default: int) -> SaOptions:
    kwargs = dict(request.options)
    disjoint = not request.allow_replication
    if "disjoint" in kwargs and bool(kwargs["disjoint"]) != disjoint:
        raise OptionsError(
            f"options disjoint={kwargs['disjoint']!r} contradicts "
            f"allow_replication={request.allow_replication!r}; set one only"
        )
    kwargs["disjoint"] = disjoint
    if request.seed is not None and kwargs.get("seed") is None:
        kwargs["seed"] = request.seed
    kwargs.setdefault("restarts", restarts_default)
    if request.current_layout is not None and kwargs.get("warm_start") is None:
        # An incumbent layout warm-starts every restart (warm_start is a
        # per-run option, not a portfolio-level one, so best-of-N stays
        # <= the stay-put cost by construction).
        kwargs["warm_start"] = request.current_layout.to_dict()
    if (
        request.time_limit is not None
        and "time_limit" not in request.options
        and "portfolio_time_limit" not in request.options
    ):
        if request.time_limit > 0:
            # The request's budget bounds the whole solve; SaPartitioner
            # routes any portfolio_time_limit through the portfolio
            # deadline even for a single restart.
            kwargs["portfolio_time_limit"] = request.time_limit
        else:
            # A zero budget is legal on SaOptions.time_limit only (the
            # run exits straight through the collapsed-layout guard).
            kwargs["time_limit"] = request.time_limit
    return SaOptions(**kwargs)


def sa_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """Simulated annealing (Algorithm 1); options mirror ``SaOptions``."""
    _check_options(request, _SA_OPTION_KEYS, "sa")
    options = _sa_options_from(request, restarts_default=1)
    return SaPartitioner(
        context.coefficients, request.num_sites, options=options
    ).solve()


def sa_portfolio_strategy(
    request: SolveRequest, context: StrategyContext
) -> PartitioningResult:
    """Best-of-N multi-start annealing (``restarts`` defaults to 4; set
    ``restarts``/``jobs`` in the options, plus ``backend`` to pick an
    execution backend from :mod:`repro.sa.backends` — "serial" or
    "process" (forked workers over the fault-tolerant transport; tune
    it with ``max_retries``, ``heartbeat_timeout`` and
    ``backoff_base``); results are identical whatever the backend or
    fault history)."""
    _check_options(request, _SA_OPTION_KEYS, "sa-portfolio")
    options = _sa_options_from(request, restarts_default=DEFAULT_PORTFOLIO_RESTARTS)
    return SaPartitioner(
        context.coefficients, request.num_sites, options=options
    ).solve()


def greedy_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """First-fit-decreasing bin packing of co-access fragments."""
    from repro.baselines.greedy import greedy_binpack_partitioning

    _check_options(request, frozenset(), "greedy")
    _require_replication(request, "greedy")
    return greedy_binpack_partitioning(context.coefficients, request.num_sites)


def affinity_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """Bond-energy attribute clustering (Navathe-style)."""
    from repro.baselines.affinity import affinity_partitioning

    _check_options(request, frozenset(), "affinity")
    _require_replication(request, "affinity")
    return affinity_partitioning(context.coefficients, request.num_sites)


def hillclimb_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """Alternating greedy descent from random starts."""
    from repro.baselines.hillclimb import hill_climb_partitioning

    _check_options(request, _HILLCLIMB_OPTION_KEYS, "hillclimb")
    _require_replication(request, "hillclimb")
    options = request.options
    return hill_climb_partitioning(
        context.coefficients,
        request.num_sites,
        seed=request.seed,
        restarts=int(options.get("restarts", 4)),
        max_rounds=int(options.get("max_rounds", 25)),
    )


def round_robin_strategy(
    request: SolveRequest, context: StrategyContext
) -> PartitioningResult:
    """Naive round-robin transaction spread with greedy attributes."""
    from repro.baselines.round_robin import round_robin_partitioning

    _check_options(request, frozenset(), "round-robin")
    _require_replication(request, "round-robin")
    return round_robin_partitioning(context.coefficients, request.num_sites)


_QP_HEAVY_OPTION_KEYS = frozenset(
    {"heavy_fraction", "final_qp", "gap", "time_limit"}
)


def qp_heavy_strategy(
    request: SolveRequest, context: StrategyContext
) -> PartitioningResult:
    """Section 4's 20/80 heavy-first refinement (QP on the heavy core,
    greedy lift, optional warm-started full QP via ``final_qp``)."""
    from repro.reduction.heavy import IterativeRefinement

    _check_options(request, _QP_HEAVY_OPTION_KEYS, "qp-heavy")
    _require_replication(request, "qp-heavy")
    options = request.options
    refinement = IterativeRefinement(
        request.instance,
        request.num_sites,
        parameters=context.coefficients.parameters,
        heavy_fraction=float(options.get("heavy_fraction", 0.2)),
        advisor=context.advisor,
    )
    return refinement.solve(
        time_limit=options.get("time_limit", request.time_limit),
        gap=float(options.get("gap", 1e-3)),
        final_qp=bool(options.get("final_qp", False)),
    )


def single_site_strategy(
    request: SolveRequest, context: StrategyContext
) -> PartitioningResult:
    """The paper's trivial ``|S| = 1`` baseline."""
    _check_options(request, frozenset(), "single-site")
    if request.num_sites != 1:
        raise OptionsError(
            f"strategy 'single-site' requires num_sites=1, got "
            f"{request.num_sites}"
        )
    return single_site_partitioning(context.coefficients)


def auto_strategy(request: SolveRequest, context: StrategyContext) -> PartitioningResult:
    """QP when the linearised model is small, SA otherwise.

    The cutoff compares :meth:`QpPartitioner.estimate_model_size` (no
    model is built) against ``options["auto_cutoff"]`` (default
    ``AUTO_QP_VARIABLE_CUTOFF`` variables) — the paper's Section VI
    observation that the exact solver stops being practical beyond a
    model-size threshold while SA keeps scaling.

    When the serving advisor carries a
    :class:`~repro.calibration.CalibrationTable` with evidence for this
    instance-size class (``Advisor(calibration=...)``), the measured
    recommendation overrides the cutoff: the pick — and a budget, QP
    time limits or SA restart counts — comes from
    :meth:`~repro.calibration.CalibrationTable.recommend`, and the
    result metadata says so (``auto_source="calibration"``).  An empty
    or absent table recommends nothing, so the cutoff path runs
    unchanged — bitwise-identical placements per seed.
    """
    if request.num_sites == 1:
        context.notes["auto_pick"] = "single-site"
        return single_site_strategy(request.with_(options={}), context)
    _check_options(
        request,
        _QP_OPTION_KEYS | _SA_OPTION_KEYS | frozenset({"auto_cutoff"}),
        "auto",
    )
    options = dict(request.options)
    if "backend" in options:
        # "backend" only names a portfolio execution backend; check it
        # before picking, so a bad value fails on the QP road too
        # instead of being dropped with the SA-only options.
        from repro.sa.backends import backend_names

        if options["backend"] not in backend_names():
            raise OptionsError(
                f"unknown backend {options['backend']!r}: not a portfolio "
                f"execution backend ({', '.join(backend_names())})"
            )
    cutoff = int(options.pop("auto_cutoff", AUTO_QP_VARIABLE_CUTOFF))
    parameters = context.coefficients.parameters
    calibrated = None
    if parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES:
        # The linearised QP cannot express this accounting (Section
        # 2.1); only SA can serve the request, whatever the model size
        # or calibration evidence.
        size = {"variables": None}
        picked, allowed = "sa", _SA_OPTION_KEYS
    else:
        size = QpPartitioner.estimate_model_size(
            context.coefficients,
            request.num_sites,
            allow_replication=request.allow_replication,
            latency=bool(options.get("latency", False)),
            symmetry_breaking=bool(options.get("symmetry_breaking", True)),
        )
        calibration = getattr(context.advisor, "calibration", None)
        if calibration is not None:
            from repro.calibration import instance_class

            calibrated = calibration.recommend(
                instance_class(
                    request.instance.num_attributes,
                    request.instance.num_transactions,
                ),
                num_sites=request.num_sites,
            )
        if calibrated is not None:
            picked = calibrated.strategy
            allowed = _QP_OPTION_KEYS if picked == "qp" else _SA_OPTION_KEYS
        elif size["variables"] <= cutoff:
            picked, allowed = "qp", _QP_OPTION_KEYS
        else:
            picked, allowed = "sa", _SA_OPTION_KEYS
    context.notes["auto_pick"] = picked
    context.notes["auto_cutoff"] = cutoff
    context.notes["auto_source"] = (
        "calibration" if calibrated is not None else "cutoff"
    )
    narrowed_options = {k: v for k, v in options.items() if k in allowed}
    if calibrated is not None:
        # The measured budget fills gaps only — explicit options and
        # request-level time limits always win over calibration.
        if (
            calibrated.time_limit is not None
            and "time_limit" not in narrowed_options
            and request.time_limit is None
        ):
            narrowed_options["time_limit"] = calibrated.time_limit
        if (
            calibrated.restarts is not None
            and "restarts" not in narrowed_options
        ):
            narrowed_options["restarts"] = calibrated.restarts
    narrowed = request.with_(strategy=picked, options=narrowed_options)
    strategy = qp_strategy if picked == "qp" else sa_strategy
    result = strategy(narrowed, context)
    result.metadata.setdefault("auto_pick", picked)
    result.metadata.setdefault("auto_source", context.notes["auto_source"])
    if calibrated is not None:
        result.metadata.setdefault(
            "auto_calibration_observations", calibrated.observations
        )
    if size["variables"] is not None:
        context.notes["auto_model_variables"] = size["variables"]
        result.metadata.setdefault("auto_model_variables", size["variables"])
    return result


def register_builtin_strategies(registry: SolverRegistry) -> None:
    """Register every built-in strategy on ``registry``."""
    registry.register("qp", qp_strategy)
    registry.register("sa", sa_strategy)
    registry.register("sa-portfolio", sa_portfolio_strategy)
    registry.register("greedy", greedy_strategy)
    registry.register("affinity", affinity_strategy)
    registry.register("hillclimb", hillclimb_strategy)
    registry.register("round-robin", round_robin_strategy)
    registry.register("single-site", single_site_strategy)
    registry.register("qp-heavy", qp_heavy_strategy)
    registry.register("auto", auto_strategy)


# ----------------------------------------------------------------------
# Workload-compression pipeline stage
# ----------------------------------------------------------------------
#: Strategies whose output depends on raw transaction *positions*, not
#: signatures — "round-robin" places transaction ``t`` on site
#: ``t mod |S|``, so changing the transaction count changes the answer.
#: The compression pipeline serves these on the original instance to
#: keep its objective-identity contract.
_POSITION_BASED_STAGES = frozenset({"round-robin"})


def solve_with_compression(
    advisor: "Advisor",
    request: SolveRequest,
    *,
    warm_start: PartitioningResult | None = None,
) -> "SolveReport":
    """Serve a request with ``compression != "off"``: compress → solve →
    lift → re-evaluate.

    The workload is compressed once (reusing the advisor's cached
    coefficients for the error bounds), the strategy chain runs
    unchanged on the compressed view, and the winning placement is
    lifted back and re-evaluated on the *original* instance — the
    report's objective is always a true original-instance cost.  Works
    for every registry strategy and chain, because the compressed view
    is just another :class:`~repro.model.instance.ProblemInstance`.

    When nothing merges (no duplicate signatures) the original request
    is served directly, so enabling compression is safe by default; the
    same applies to position-based strategies (round-robin), whose
    placements are defined over raw transaction indices and therefore
    never see a compressed view.
    """
    if any(stage in _POSITION_BASED_STAGES for stage in request.stages):
        report = advisor.advise(
            request.with_(compression="off", compression_tolerance=0.0),
            warm_start=warm_start,
        )
        report.result.metadata.setdefault(
            "compression_skipped", "position-based strategy"
        )
        report.result.metadata.setdefault("compression_ratio", 1.0)
        return SolveReport(
            request=request,
            result=report.result,
            strategy=report.strategy,
            wall_time=report.wall_time,
            cache_stats=report.cache_stats,
            stage_results=report.stage_results,
        )
    started = time.perf_counter()
    before = advisor.cache_stats()
    original_coefficients = advisor.coefficients_for(request)
    compressed = compress_instance(
        request.instance,
        tier=request.compression,
        tolerance=request.compression_tolerance,
        coefficients=original_coefficients,
    )
    if compressed.is_identity:
        inner_request = request.with_(
            compression="off", compression_tolerance=0.0
        )
        inner_warm = warm_start
    else:
        inner_request = request.with_(
            instance=compressed.compressed,
            compression="off",
            compression_tolerance=0.0,
        )
        inner_warm = None
        if warm_start is not None:
            inner_warm = compress_result(
                compressed,
                warm_start,
                advisor.coefficient_cache(
                    compressed.compressed
                ).coefficients(request.parameters),
            )
    report = advisor.advise(inner_request, warm_start=inner_warm)
    if compressed.is_identity:
        result = report.result
        result.metadata.setdefault("compression_tier", compressed.tier)
        result.metadata.setdefault("compression_ratio", 1.0)
        result.metadata.setdefault("objective_error_bound", 0.0)
    else:
        result = lift_result(
            compressed, report.result, coefficients=original_coefficients
        )
    after = advisor.cache_stats()
    return SolveReport(
        request=request,
        result=result,
        strategy=report.strategy,
        wall_time=time.perf_counter() - started,
        cache_stats={key: after[key] - before[key] for key in after},
        stage_results=report.stage_results,
    )
