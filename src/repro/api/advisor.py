"""The advisor facade: ``advise(request)`` and batched serving.

One :class:`Advisor` is a long-lived serving object: it owns a
per-instance :class:`~repro.costmodel.coefficients.CoefficientCache`
(indicators/weights built once per instance, coefficient arrays memoised
per cost parameters), so a batch of requests — a parameter sweep, a
bench table, a service queue — pays the coefficient work once.  Cached
serving is bitwise identical to uncached: the cache only shares
intermediate products, never changes the arithmetic.  Model (7) is
rebuilt per QP request; its array assembly costs a small fraction of
the HiGHS solve.

``advise_many`` serves a list of requests in deterministic order and
derives per-request seeds from one master seed; SA-family stages can fan
their restart portfolios out over forked worker processes via
``jobs`` without changing any result (the portfolio incumbent does not
depend on completion order).

Threading model
---------------

One :class:`Advisor` may be shared across threads — the asyncio service
front end (:mod:`repro.service`) does exactly that, admitting requests
on the event loop while solves run on a worker thread.  The shared
caches (:class:`~repro.costmodel.coefficients.CoefficientCache` and
the advisor's own per-instance LRU) are plain Python structures with no
concurrency story of their own, so the advisor serialises: every :meth:`advise` call runs
under one internal re-entrant lock, as do :meth:`coefficient_cache` and
:meth:`cache_stats`.  Concurrent callers therefore never corrupt a
cache — they queue.  Serialisation is also what keeps the per-request
``cache_stats`` deltas in :class:`~repro.api.report.SolveReport`
attributable: the counters move only for the request holding the lock.
(The lock is re-entrant because the compression pipeline and the
``qp-heavy`` strategy re-enter ``advise`` from inside a serve.)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api.registry import SolverRegistry, StrategyContext, default_registry
from repro.api.report import MigrationReport, SolveReport
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import (
    CoefficientCache,
    CostCoefficients,
    attach_migration,
)
from repro.costmodel.evaluator import SolutionEvaluator
from repro.exceptions import OptionsError
from repro.model.instance import ProblemInstance
from repro.partition.assignment import PartitioningResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calibration import CalibrationTable

#: Stages that understand the SA ``jobs`` option (portfolio fan-out).
_POOLED_STAGES = frozenset({"sa", "sa-portfolio", "auto"})


def derive_request_seeds(master_seed: int, count: int) -> list[int]:
    """``count`` deterministic, pairwise-independent request seeds."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


class Advisor:
    """Serve :class:`SolveRequest` objects through the solver registry.

    Parameters
    ----------
    registry:
        The strategy registry to resolve names against (default: the
        process-wide registry with all built-ins).
    instance_cache_capacity:
        Number of distinct instances whose coefficient caches the
        advisor retains (LRU eviction beyond it), bounding memory for
        long-lived advisors that see many instances.
    coefficient_capacity:
        Per-instance bound on memoised coefficient *parameter points*
        (each :class:`~repro.costmodel.coefficients.CoefficientCache`
        gets this LRU capacity; ``None`` keeps them unbounded).  Set it
        for week-long deployments sweeping many parameter settings.
    calibration:
        An optional :class:`~repro.calibration.CalibrationTable`.  When
        set, every top-level :meth:`advise` records one observation
        (resolved strategy, execution backend, instance class, model
        size, wall time, objective quality) into it, and the ``"auto"``
        strategy consults it to pick strategy *and* budget
        (:meth:`~repro.calibration.CalibrationTable.recommend`).  Off by
        default — requests are never touched, so canonical request JSON
        and every cache key stay byte-stable — and with an empty table
        ``"auto"`` falls back bitwise-identically to the model-size
        cutoff.
    """

    #: Default number of per-instance coefficient caches retained.
    DEFAULT_INSTANCE_CAPACITY = 32

    def __init__(
        self,
        registry: SolverRegistry | None = None,
        *,
        instance_cache_capacity: int = DEFAULT_INSTANCE_CAPACITY,
        coefficient_capacity: int | None = None,
        calibration: "CalibrationTable | None" = None,
    ):
        if instance_cache_capacity < 1:
            raise OptionsError(
                f"instance_cache_capacity must be >= 1, got "
                f"{instance_cache_capacity}"
            )
        self.registry = registry or default_registry()
        self.instance_cache_capacity = instance_cache_capacity
        self.coefficient_capacity = coefficient_capacity
        # Keyed by instance identity; the instance reference is kept so
        # a garbage-collected id() can never alias a live entry.
        self._coefficient_caches: OrderedDict[
            int, tuple[ProblemInstance, CoefficientCache]
        ] = OrderedDict()
        # Counter totals of evicted caches, so cache_stats (and the
        # per-request deltas derived from it) never run backwards.
        self._evicted_hits = 0
        self._evicted_misses = 0
        self._evicted_evictions = 0
        self.requests_served = 0
        self.calibration = calibration
        # Depth of advise() re-entry (compression and "qp-heavy" issue
        # sub-requests through the same advisor): the calibration hook
        # records top-level serves only, so sub-instance solves never
        # pollute the table with observations no caller asked for.
        self._advise_depth = 0
        # Serialises concurrent use — see "Threading model" above.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------
    def coefficient_cache(self, instance: ProblemInstance) -> CoefficientCache:
        """The advisor's (memoised) coefficient cache for ``instance``."""
        with self._lock:
            entry = self._coefficient_caches.get(id(instance))
            if entry is None or entry[0] is not instance:
                entry = (
                    instance,
                    CoefficientCache(
                        instance, capacity=self.coefficient_capacity
                    ),
                )
                self._coefficient_caches[id(instance)] = entry
                while (
                    len(self._coefficient_caches)
                    > self.instance_cache_capacity
                ):
                    _, (_, evicted) = self._coefficient_caches.popitem(
                        last=False
                    )
                    self._evicted_hits += evicted.hits
                    self._evicted_misses += evicted.misses
                    self._evicted_evictions += evicted.evictions
            else:
                self._coefficient_caches.move_to_end(id(instance))
            return entry[1]

    def coefficients_for(self, request: SolveRequest) -> CostCoefficients:
        """Coefficients for a request (shared across equal parameters).

        Requests carrying a :attr:`~repro.api.request.SolveRequest.
        current_layout` get the migration block attached per-request
        (a cheap ``dataclasses.replace`` over the cached arrays) — the
        shared cache itself only ever holds layout-free coefficients,
        so layout-carrying requests can never leak a move term into
        unrelated requests over the same instance and parameters.
        """
        coefficients = self.coefficient_cache(request.instance).coefficients(
            request.parameters
        )
        if request.current_layout is not None:
            coefficients = attach_migration(
                coefficients,
                request.current_layout,
                request.migration_cost,
                request.num_sites,
            )
        return coefficients

    def cache_stats(self) -> dict[str, int]:
        """Cumulative cache counters across every request served."""
        with self._lock:
            caches = [
                cache for _, cache in self._coefficient_caches.values()
            ]
            return {
                "coefficient_hits": self._evicted_hits
                + sum(cache.hits for cache in caches),
                "coefficient_misses": self._evicted_misses
                + sum(cache.misses for cache in caches),
                "coefficient_evictions": self._evicted_evictions
                + sum(cache.evictions for cache in caches),
            }

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def advise(
        self,
        request: SolveRequest,
        *,
        warm_start: PartitioningResult | None = None,
    ) -> SolveReport:
        """Serve one request and return its :class:`SolveReport`.

        ``warm_start`` optionally seeds the first stage with a known
        incumbent (stages of a chained strategy warm-start each other
        automatically; only strategies that understand warm starts — the
        QP — consume it).

        Requests with ``compression != "off"`` take the
        compress→solve→lift pipeline
        (:func:`~repro.api.strategies.solve_with_compression`): the
        strategy chain runs on the compressed view and the report holds
        the lifted partitioning with its objective re-evaluated on the
        original instance.

        Thread-safe: concurrent calls serialise on the advisor's
        internal lock (see the module's "Threading model" section).
        """
        with self._lock:
            self._advise_depth += 1
            try:
                report = self._advise_locked(request, warm_start=warm_start)
            finally:
                self._advise_depth -= 1
            if self._advise_depth == 0 and self.calibration is not None:
                from repro.calibration import record as record_observation

                record_observation(self.calibration, report)
            return report

    def _advise_locked(
        self,
        request: SolveRequest,
        *,
        warm_start: PartitioningResult | None = None,
    ) -> SolveReport:
        if request.compression != "off":
            from repro.api.strategies import solve_with_compression

            return solve_with_compression(self, request, warm_start=warm_start)
        started = time.perf_counter()
        before = self.cache_stats()
        stages = request.stages
        chained = len(stages) > 1
        if chained:
            unknown = set(request.options) - set(stages)
            if unknown:
                raise OptionsError(
                    f"chained strategy {request.strategy!r} takes per-stage "
                    f"option groups keyed by stage name; unknown keys "
                    f"{sorted(unknown)} (stages: {list(stages)})"
                )

        results: list[PartitioningResult] = []
        resolved: list[str] = []
        incumbent = warm_start
        deadline = None
        if chained and request.time_limit is not None:
            # One budget bounds the whole chain: each stage gets what is
            # left of it, not a fresh full allowance.
            deadline = started + request.time_limit
        for position, stage_name in enumerate(stages):
            strategy = self.registry.get(stage_name)
            if chained:
                stage_options: Any = request.options.get(stage_name, {})
                stage_time = request.time_limit
                if deadline is not None:
                    stage_time = max(0.0, deadline - time.perf_counter())
                    if stage_time <= 0.0 and results:
                        # Budget exhausted: keep the incumbent the
                        # earlier stages already produced instead of
                        # failing the whole request.
                        results[-1].metadata.setdefault(
                            "chain_stages_skipped", list(stages[position:])
                        )
                        break
                stage_request = request.with_(
                    strategy=stage_name,
                    options=stage_options,
                    time_limit=stage_time,
                )
            else:
                stage_request = request
            context = StrategyContext(
                coefficients=self.coefficients_for(request),
                warm_start=incumbent,
                advisor=self,
            )
            # Strategies that consume the incumbent (the QP family)
            # record "warm_start_objective" themselves; stages that
            # ignore warm starts must not claim one.
            result = strategy(stage_request, context)
            resolved.append(context.notes.get("auto_pick", stage_name))
            results.append(result)
            incumbent = result

        after = self.cache_stats()
        self.requests_served += 1
        return SolveReport(
            request=request,
            result=results[-1],
            strategy="->".join(resolved),
            wall_time=time.perf_counter() - started,
            cache_stats={key: after[key] - before[key] for key in after},
            stage_results=results[:-1],
        )

    def readvise(
        self,
        request: SolveRequest,
        trace: Any = None,
        *,
        keep_missing: bool = True,
    ) -> SolveReport:
        """Re-partition against an incumbent layout: solve, then verdict.

        The online entry point for a system that *already has* a layout
        deployed (``request.current_layout``; required).  Optionally
        re-estimates the instance's workload statistics from ``trace``
        first — a :class:`~repro.stats.streaming.DecayedTraceCollector`
        (its decayed snapshot), a
        :class:`~repro.stats.estimator.TraceCollector`, a mapping of
        query name to
        :class:`~repro.stats.estimator.QueryStatistics`, or a plain
        iterable of :class:`~repro.stats.estimator.QueryEvent` — then
        serves the request normally (the solver minimises the
        migration-augmented objective and SA warm-starts from the
        incumbent) and attaches a
        :class:`~repro.api.report.MigrationReport` comparing the
        re-solve against the deterministic stay-put solution.

        The stay-put solution is
        :func:`~repro.sa.annealer.warm_start_solution` on the same
        coefficients — exactly what SA's restart 0 replays — so for
        SA-family strategies the migrated total can never exceed
        staying put.  ``keep_missing`` is forwarded to the
        re-estimator: queries absent from the trace keep their old
        statistics when true, are dropped when false.
        """
        with self._lock:
            if request.current_layout is None:
                raise OptionsError(
                    "readvise needs request.current_layout: the stay-vs-"
                    "move verdict is measured against an incumbent layout"
                )
            if trace is not None:
                from repro.stats.estimator import reestimate_from_statistics

                statistics = self._trace_statistics(trace)
                traced = reestimate_from_statistics(
                    request.instance, statistics, keep_missing=keep_missing
                )
                request = request.with_(instance=traced)

            coefficients = self.coefficients_for(request)  # migration-attached
            block = coefficients.migration
            assert block is not None  # guaranteed by the layout guard above
            from repro.sa.annealer import warm_start_solution
            from repro.sa.subsolve import SubproblemSolver

            subsolver = SubproblemSolver(coefficients, request.num_sites)
            stay_x, stay_y, _ = warm_start_solution(
                subsolver, block.y0, disjoint=not request.allow_replication
            )
            evaluator = SolutionEvaluator(coefficients)
            stay_cost = evaluator.objective6(stay_x, stay_y)

            report = self._advise_locked(request)
            result = report.result
            total_cost = evaluator.objective6(result.x, result.y)
            move_cost = evaluator.migration_cost(result.y)
            base = self.coefficient_cache(request.instance).coefficients(
                request.parameters
            )
            solve_cost = SolutionEvaluator(base).objective6(
                result.x, result.y
            )
            moved = not np.array_equal(result.y > 0.5, stay_y > 0.5)
            report.migration = MigrationReport(
                stay_cost=stay_cost,
                solve_cost=solve_cost,
                move_cost=move_cost,
                total_cost=total_cost,
                recommendation=(
                    "migrate" if moved and total_cost < stay_cost else "stay"
                ),
                migration_cost=request.migration_cost,
            )
            return report

    @staticmethod
    def _trace_statistics(trace: Any) -> Mapping[str, Any]:
        """Normalise the ``trace`` argument of :meth:`readvise`."""
        from repro.stats.estimator import TraceCollector, estimate_statistics
        from repro.stats.streaming import DecayedTraceCollector

        if isinstance(trace, DecayedTraceCollector):
            return trace.statistics()
        if isinstance(trace, TraceCollector):
            return trace.aggregate()
        if isinstance(trace, Mapping):
            return trace
        return estimate_statistics(trace)

    def advise_many(
        self,
        requests: Iterable[SolveRequest],
        *,
        master_seed: int | None = None,
        jobs: int | None = None,
    ) -> list[SolveReport]:
        """Serve a batch of requests through the shared caches.

        ``master_seed`` fills the seed of every request that does not
        pin one, via deterministic per-request ``SeedSequence`` children
        — the batch reproduces exactly for a fixed master seed.
        ``jobs`` fans SA-family restart portfolios out over that many
        forked worker processes; results are identical for any value
        (the portfolio incumbent is completion-order independent), only
        wall-clock changes.
        """
        batch = list(requests)
        if master_seed is not None:
            seeds = derive_request_seeds(master_seed, len(batch))
            batch = [
                request if request.seed is not None
                else request.with_(seed=seed)
                for request, seed in zip(batch, seeds)
            ]
        if jobs is not None:
            batch = [self._with_jobs(request, jobs) for request in batch]
        return [self.advise(request) for request in batch]

    @staticmethod
    def _with_jobs(request: SolveRequest, jobs: int) -> SolveRequest:
        """Inject the worker count into every stage that can use it."""
        stages = request.stages
        if len(stages) == 1:
            if stages[0] in _POOLED_STAGES and "jobs" not in request.options:
                return request.with_options(jobs=jobs)
            return request
        options = dict(request.options)
        changed = False
        for stage in stages:
            if stage in _POOLED_STAGES:
                group = dict(options.get(stage, {}))
                if "jobs" not in group:
                    group["jobs"] = jobs
                    options[stage] = group
                    changed = True
        return request.with_(options=options) if changed else request


def advise(
    request: SolveRequest,
    *,
    warm_start: PartitioningResult | None = None,
    registry: SolverRegistry | None = None,
) -> SolveReport:
    """Serve one request through a fresh, throwaway :class:`Advisor`.

    Results are identical to ``Advisor().advise(request)``; use a
    long-lived :class:`Advisor` when serving several related requests so
    they share coefficient products.
    """
    return Advisor(registry).advise(request, warm_start=warm_start)


def advise_many(
    requests: Sequence[SolveRequest],
    *,
    master_seed: int | None = None,
    jobs: int | None = None,
    registry: SolverRegistry | None = None,
) -> list[SolveReport]:
    """Serve a batch through a fresh :class:`Advisor` (shared caches)."""
    return Advisor(registry).advise_many(
        requests, master_seed=master_seed, jobs=jobs
    )
