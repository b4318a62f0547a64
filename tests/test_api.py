"""The unified advisor API: requests, registry, parity, batching."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import (
    Advisor,
    SolveRequest,
    SolverRegistry,
    advise,
    advise_many,
    default_registry,
    register_solver,
)
from repro.baselines.affinity import affinity_partitioning
from repro.baselines.greedy import greedy_binpack_partitioning
from repro.baselines.hillclimb import hill_climb_partitioning
from repro.baselines.round_robin import round_robin_partitioning
from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters, WriteAccounting
from repro.exceptions import OptionsError, SolverError, UnknownStrategyError
from repro.partition.assignment import single_site_partitioning
from repro.qp.linearize import build_linearized_model
from repro.qp.solver import QpPartitioner, solve_qp
from repro.reduction.heavy import IterativeRefinement
from repro.sa.options import SaOptions
from repro.sa.solver import SaPartitioner, solve_sa
from tests.conftest import small_random_instance

#: Small-but-fast SA settings shared by the parity tests.
SA_TEST_OPTIONS = {"inner_loops": 5, "max_outer_loops": 8, "patience": 3}


def _assert_same_solution(a, b):
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.objective == b.objective


# ----------------------------------------------------------------------
# SolveRequest
# ----------------------------------------------------------------------
class TestSolveRequest:
    def test_json_round_trip_is_exact(self, tiny_instance):
        request = SolveRequest(
            instance=tiny_instance,
            num_sites=3,
            parameters=CostParameters(
                network_penalty=2.5,
                load_balance_lambda=0.75,
                write_accounting=WriteAccounting.NO_ATTRIBUTES,
                latency_penalty=1.5,
            ),
            allow_replication=False,
            strategy="sa",
            options={"inner_loops": 7, "restarts": 3, "cooling_rate": 0.8},
            seed=42,
            time_limit=12.5,
        )
        restored = SolveRequest.from_json(request.to_json())
        assert restored.to_dict() == request.to_dict()
        assert restored.num_sites == 3
        assert restored.parameters == request.parameters
        assert restored.allow_replication is False
        assert dict(restored.options) == dict(request.options)
        assert restored.seed == 42
        assert restored.time_limit == 12.5
        assert restored.instance.name == tiny_instance.name
        assert restored.instance.num_attributes == tiny_instance.num_attributes

    def test_round_trip_of_chained_request(self, tiny_instance):
        request = SolveRequest(
            instance=tiny_instance,
            num_sites=2,
            strategy="sa-portfolio->qp",
            options={"sa-portfolio": {"restarts": 2}, "qp": {"gap": 1e-4}},
        )
        restored = SolveRequest.from_json(request.to_json())
        assert restored.to_dict() == request.to_dict()
        assert restored.stages == ("sa-portfolio", "qp")

    def test_defaults_survive_round_trip(self, tiny_instance):
        request = SolveRequest(tiny_instance, num_sites=2)
        restored = SolveRequest.from_json(request.to_json())
        assert restored.strategy == "auto"
        assert restored.parameters == CostParameters()
        assert restored.seed is None and restored.time_limit is None

    def test_validation(self, tiny_instance):
        with pytest.raises(OptionsError):
            SolveRequest(tiny_instance, num_sites=0)
        with pytest.raises(OptionsError):
            SolveRequest(tiny_instance, num_sites=2, strategy="  ")
        with pytest.raises(OptionsError):
            SolveRequest(tiny_instance, num_sites=2, strategy="sa->")
        with pytest.raises(OptionsError):
            SolveRequest(tiny_instance, num_sites=2, time_limit=-1.0)

    def test_request_is_frozen(self, tiny_instance):
        request = SolveRequest(tiny_instance, num_sites=2, options={"a": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.num_sites = 3
        with pytest.raises(TypeError):
            request.options["a"] = 2

    def test_with_options_merges(self, tiny_instance):
        request = SolveRequest(tiny_instance, 2, options={"a": 1})
        merged = request.with_options(b=2)
        assert dict(merged.options) == {"a": 1, "b": 2}
        assert dict(request.options) == {"a": 1}

    def test_unsupported_format_version(self, tiny_instance):
        payload = SolveRequest(tiny_instance, 2).to_dict()
        payload["format_version"] = 99
        with pytest.raises(OptionsError):
            SolveRequest.from_dict(payload)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = default_registry().names()
        for name in ("qp", "sa", "sa-portfolio", "greedy", "affinity",
                     "hillclimb", "round-robin", "single-site", "qp-heavy",
                     "auto"):
            assert name in names

    def test_unknown_strategy_lists_known(self, tiny_instance):
        with pytest.raises(UnknownStrategyError, match="registered:.*qp"):
            advise(SolveRequest(tiny_instance, 2, strategy="nope"))

    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()
        registry.register("mine", lambda request, context: None)
        with pytest.raises(SolverError, match="already registered"):
            registry.register("mine", lambda request, context: None)
        registry.register("mine", lambda request, context: None, replace=True)

    def test_non_callable_rejected(self):
        with pytest.raises(SolverError, match="callable"):
            SolverRegistry().register("mine", object())

    def test_unregister_unknown(self):
        with pytest.raises(UnknownStrategyError):
            SolverRegistry().unregister("ghost")

    def test_user_registered_strategy_served(self, tiny_instance):
        registry = default_registry().copy()

        @registry.register("always-round-robin")
        def always_round_robin(request, context):
            return round_robin_partitioning(
                context.coefficients, request.num_sites
            )

        report = advise(
            SolveRequest(tiny_instance, 2, strategy="always-round-robin"),
            registry=registry,
        )
        assert report.strategy == "always-round-robin"
        direct = round_robin_partitioning(
            build_coefficients(tiny_instance, CostParameters()), 2
        )
        _assert_same_solution(report.result, direct)
        # The experiment-local registry never leaked into the default.
        assert "always-round-robin" not in default_registry()

    def test_register_solver_into_default(self, tiny_instance):
        @register_solver("test-api-temporary")
        def temporary(request, context):
            return round_robin_partitioning(
                context.coefficients, request.num_sites
            )

        try:
            report = advise(
                SolveRequest(tiny_instance, 2, strategy="test-api-temporary")
            )
            assert report.result.solver == "round-robin"
        finally:
            default_registry().unregister("test-api-temporary")


# ----------------------------------------------------------------------
# advise() vs direct calls: bitwise parity at pinned seeds
# ----------------------------------------------------------------------
class TestParity:
    @pytest.fixture
    def coefficients(self, tiny_instance):
        return build_coefficients(tiny_instance, CostParameters())

    def test_qp(self, tiny_instance, coefficients):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="qp",
            time_limit=20,
        ))
        direct = QpPartitioner(coefficients, 2).solve(time_limit=20)
        _assert_same_solution(report.result, direct)

    def test_qp_disjoint(self, tiny_instance, coefficients):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="qp", allow_replication=False,
            time_limit=20,
        ))
        direct = QpPartitioner(
            coefficients, 2, allow_replication=False
        ).solve(time_limit=20)
        _assert_same_solution(report.result, direct)

    def test_sa(self, tiny_instance, coefficients):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="sa",
            options=SA_TEST_OPTIONS, seed=3,
        ))
        direct = SaPartitioner(
            coefficients, 2, options=SaOptions(seed=3, **SA_TEST_OPTIONS)
        ).solve()
        _assert_same_solution(report.result, direct)

    def test_sa_portfolio(self, tiny_instance, coefficients):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="sa-portfolio",
            options={"restarts": 3, **SA_TEST_OPTIONS}, seed=9,
        ))
        direct = SaPartitioner(
            coefficients, 2,
            options=SaOptions(seed=9, restarts=3, **SA_TEST_OPTIONS),
        ).solve()
        _assert_same_solution(report.result, direct)
        assert report.metadata["best_restart"] == direct.metadata["best_restart"]

    def test_greedy(self, tiny_instance, coefficients):
        report = advise(SolveRequest(tiny_instance, 2, strategy="greedy"))
        _assert_same_solution(
            report.result, greedy_binpack_partitioning(coefficients, 2)
        )

    def test_affinity(self, tiny_instance, coefficients):
        report = advise(SolveRequest(tiny_instance, 2, strategy="affinity"))
        _assert_same_solution(
            report.result, affinity_partitioning(coefficients, 2)
        )

    def test_round_robin(self, tiny_instance, coefficients):
        report = advise(SolveRequest(tiny_instance, 2, strategy="round-robin"))
        _assert_same_solution(
            report.result, round_robin_partitioning(coefficients, 2)
        )

    def test_hillclimb(self, tiny_instance, coefficients):
        report = advise(
            SolveRequest(tiny_instance, 2, strategy="hillclimb", seed=5)
        )
        _assert_same_solution(
            report.result, hill_climb_partitioning(coefficients, 2, seed=5)
        )

    def test_single_site(self, tiny_instance, coefficients):
        report = advise(SolveRequest(tiny_instance, 1, strategy="single-site"))
        _assert_same_solution(
            report.result, single_site_partitioning(coefficients)
        )

    def test_qp_heavy(self, coefficients):
        instance = small_random_instance(6)
        report = advise(SolveRequest(
            instance, 2, strategy="qp-heavy",
            time_limit=20,
        ))
        direct = IterativeRefinement(instance, 2).solve(time_limit=20)
        _assert_same_solution(report.result, direct)

    def test_solve_qp_shim(self, tiny_instance, coefficients):
        shim = solve_qp(tiny_instance, 2, time_limit=20)
        direct = QpPartitioner(coefficients, 2).solve(time_limit=20)
        _assert_same_solution(shim, direct)

    def test_solve_sa_shim(self, tiny_instance, coefficients):
        shim = solve_sa(
            tiny_instance, 2, options=SaOptions(**SA_TEST_OPTIONS), seed=7
        )
        direct = SaPartitioner(
            coefficients, 2, options=SaOptions(seed=7, **SA_TEST_OPTIONS)
        ).solve()
        _assert_same_solution(shim, direct)

    def test_unknown_strategy_option_rejected(self, tiny_instance):
        with pytest.raises(OptionsError, match="unknown options"):
            advise(SolveRequest(
                tiny_instance, 2, strategy="sa", options={"typo_knob": 1}
            ))

    def test_baselines_reject_disjoint(self, tiny_instance):
        for strategy in ("greedy", "affinity", "hillclimb", "round-robin"):
            with pytest.raises(OptionsError, match="disjoint"):
                advise(SolveRequest(
                    tiny_instance, 2, strategy=strategy,
                    allow_replication=False,
                ))


# ----------------------------------------------------------------------
# "auto": the Section VI model-size cutoff
# ----------------------------------------------------------------------
class TestAutoStrategy:
    def test_small_model_routes_to_qp(self, tiny_instance):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="auto",
            time_limit=20,
        ))
        assert report.strategy == "qp"
        assert report.metadata["auto_pick"] == "qp"
        assert report.requested_strategy == "auto"

    def test_tight_cutoff_routes_to_sa(self, tiny_instance):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="auto", seed=1,
            options={"auto_cutoff": 0, **SA_TEST_OPTIONS},
        ))
        assert report.strategy == "sa"
        assert report.result.solver == "sa"

    def test_single_site_request(self, tiny_instance):
        report = advise(SolveRequest(tiny_instance, 1, strategy="auto"))
        assert report.strategy == "single-site"

    def test_relevant_accounting_routes_to_sa(self, tiny_instance):
        """The linearised QP cannot express RELEVANT_ATTRIBUTES; auto
        must route to SA however small the model is."""
        report = advise(SolveRequest(
            tiny_instance, 2, seed=1,
            parameters=CostParameters(
                write_accounting=WriteAccounting.RELEVANT_ATTRIBUTES
            ),
            strategy="auto", options=SA_TEST_OPTIONS,
        ))
        assert report.strategy == "sa"
        assert report.result.solver == "sa"

    def test_auto_rejects_unknown_options(self, tiny_instance):
        with pytest.raises(OptionsError, match="unknown options"):
            advise(SolveRequest(
                tiny_instance, 2, strategy="auto", options={"restartz": 9}
            ))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"allow_replication": False},
            {"symmetry_breaking": False},
        ],
    )
    def test_estimate_matches_built_model(self, seed, kwargs):
        """The estimate counts the unreduced model (7), the size the
        cutoff has always compared, not the one over attribute classes."""
        instance = small_random_instance(seed)
        coefficients = build_coefficients(instance, CostParameters())
        estimate = QpPartitioner.estimate_model_size(coefficients, 3, **kwargs)
        assert estimate == _unreduced_size(coefficients, 3, **kwargs)

    def test_estimate_matches_without_load_side(self):
        instance = small_random_instance(1)
        coefficients = build_coefficients(
            instance, CostParameters(load_balance_lambda=1.0)
        )
        assert (
            QpPartitioner.estimate_model_size(coefficients, 2)
            == _unreduced_size(coefficients, 2)
        )


def _unreduced_size(coefficients, num_sites, **kwargs) -> dict[str, int]:
    linearized = build_linearized_model(coefficients, num_sites, **kwargs)
    model = linearized.model
    return {
        "variables": model.num_variables,
        "integer_variables": model.num_integer_variables,
        "constraints": model.num_constraints,
        "u_variables": linearized.u_columns.size,
    }


# ----------------------------------------------------------------------
# Chained strategies
# ----------------------------------------------------------------------
class TestChaining:
    def test_portfolio_warm_starts_qp(self, tiny_instance):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="sa-portfolio->qp",
            options={
                "sa-portfolio": {"restarts": 2, **SA_TEST_OPTIONS},
            },
            seed=4, time_limit=20,
        ))
        assert report.strategy == "sa-portfolio->qp"
        assert len(report.stage_results) == 1
        assert report.stage_results[0].solver == "sa"
        assert report.result.solver == "qp"
        # The QP consumed the portfolio incumbent as its upper bound.
        assert report.metadata["warm_start_objective"] == pytest.approx(
            report.stage_results[0].objective
        )

    def test_chain_matches_direct_warm_start(self, tiny_instance):
        coefficients = build_coefficients(tiny_instance, CostParameters())
        incumbent = SaPartitioner(
            coefficients, 2,
            options=SaOptions(seed=4, restarts=2, **SA_TEST_OPTIONS),
        ).solve()
        direct = QpPartitioner(coefficients, 2).solve(
            time_limit=20, warm_start=incumbent
        )
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="sa-portfolio->qp",
            options={
                "sa-portfolio": {"restarts": 2, **SA_TEST_OPTIONS},
            },
            seed=4, time_limit=20,
        ))
        _assert_same_solution(report.result, direct)

    def test_chain_shares_one_time_budget(self, tiny_instance):
        """Each stage gets only what is left of request.time_limit."""
        seen: list[float | None] = []
        registry = default_registry().copy()

        def recording(request, context):
            seen.append(request.time_limit)
            return round_robin_partitioning(
                context.coefficients, request.num_sites
            )

        registry.register("record-budget", recording)
        advise(SolveRequest(
            tiny_instance, 2, strategy="record-budget->record-budget",
            time_limit=30.0,
        ), registry=registry)
        assert len(seen) == 2
        assert seen[0] is not None and seen[0] <= 30.0
        # The second stage's allowance shrank by the first stage's run.
        assert seen[1] is not None and seen[1] <= seen[0]

    def test_chained_options_must_be_stage_scoped(self, tiny_instance):
        with pytest.raises(OptionsError, match="per-stage"):
            advise(SolveRequest(
                tiny_instance, 2, strategy="sa-portfolio->qp",
                options={"restarts": 2},
            ))

    def test_exhausted_budget_keeps_incumbent(self, tiny_instance):
        """When the chain budget runs out, later stages are skipped and
        the incumbent already computed is returned, not an error."""
        import time as time_module

        registry = default_registry().copy()

        @registry.register("slow-round-robin")
        def slow(request, context):
            time_module.sleep(0.05)
            return round_robin_partitioning(
                context.coefficients, request.num_sites
            )

        report = advise(SolveRequest(
            tiny_instance, 2, strategy="slow-round-robin->qp",
            time_limit=0.01,
        ), registry=registry)
        assert report.result.solver == "round-robin"
        assert report.strategy == "slow-round-robin"
        assert report.metadata["chain_stages_skipped"] == ["qp"]

    def test_zero_time_limit_sa_still_returns_solution(self, tiny_instance):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="sa", seed=1, time_limit=0.0,
        ))
        coefficients = build_coefficients(tiny_instance, CostParameters())
        # The zero-budget run exits through the collapsed one-site
        # guard, which is the universal upper bar.
        assert report.objective <= single_site_partitioning(
            coefficients
        ).objective

    def test_prebuilt_coefficients_shims_skip_rebuild(self, tiny_instance):
        coefficients = build_coefficients(tiny_instance, CostParameters())
        qp = solve_qp(coefficients, 2, time_limit=20)
        assert qp.coefficients is coefficients
        sa = solve_sa(
            coefficients, 2, options=SaOptions(**SA_TEST_OPTIONS), seed=2
        )
        assert sa.coefficients is coefficients

    def test_ignoring_stage_claims_no_warm_start(self, tiny_instance):
        """Only warm-start consumers (the QP family) may record one."""
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="qp->round-robin",
            options={"qp": {"time_limit": 20}},
        ))
        assert report.result.solver == "round-robin"
        assert "warm_start_objective" not in report.metadata

    def test_stage_scoped_time_limit_overrides_request(self, tiny_instance):
        report = advise(SolveRequest(
            tiny_instance, 2, strategy="qp",
            options={"time_limit": 20},
        ))
        direct = QpPartitioner(
            build_coefficients(tiny_instance, CostParameters()), 2
        ).solve(time_limit=20)
        _assert_same_solution(report.result, direct)


# ----------------------------------------------------------------------
# Batched serving
# ----------------------------------------------------------------------
def _sweep_requests(instance):
    """A 10-point QP sweep alternating replicated/disjoint requests."""
    requests = []
    for penalty in (1.0, 2.0, 4.0, 8.0, 16.0):
        parameters = CostParameters(network_penalty=penalty)
        for allow_replication in (True, False):
            requests.append(SolveRequest(
                instance, 2, parameters=parameters,
                allow_replication=allow_replication, strategy="qp",
                time_limit=20,
            ))
    return requests


class TestAdviseMany:
    def test_sweep_reuses_both_caches(self, tiny_instance):
        advisor = Advisor()
        reports = advisor.advise_many(_sweep_requests(tiny_instance))
        assert len(reports) == 10
        stats = advisor.cache_stats()
        # Each penalty builds coefficients once and reuses them for the
        # disjoint twin.
        assert stats["coefficient_misses"] == 5
        assert stats["coefficient_hits"] == 5
        # Cached serving must match fresh advisors bitwise.
        for request, report in zip(_sweep_requests(tiny_instance), reports):
            fresh = Advisor().advise(request)
            _assert_same_solution(report.result, fresh.result)

    def test_deterministic_per_master_seed_regardless_of_jobs(
        self, tiny_instance
    ):
        def batch():
            return [
                SolveRequest(
                    tiny_instance, 2, strategy="sa-portfolio",
                    options={"restarts": 3, **SA_TEST_OPTIONS},
                )
                for _ in range(3)
            ]

        serial = Advisor().advise_many(batch(), master_seed=11, jobs=1)
        pooled = Advisor().advise_many(batch(), master_seed=11, jobs=2)
        repeat = Advisor().advise_many(batch(), master_seed=11, jobs=1)
        for a, b in zip(serial, pooled):
            _assert_same_solution(a.result, b.result)
        for a, b in zip(serial, repeat):
            _assert_same_solution(a.result, b.result)
        # Distinct requests drew distinct derived seeds.
        seeds = [report.request.seed for report in serial]
        assert len(set(seeds)) == len(seeds)
        assert all(seed is not None for seed in seeds)

    def test_pinned_seed_wins_over_master_seed(self, tiny_instance):
        request = SolveRequest(
            tiny_instance, 2, strategy="sa", options=SA_TEST_OPTIONS, seed=123
        )
        (report,) = advise_many([request], master_seed=7)
        assert report.request.seed == 123

    def test_module_level_advise_many(self, tiny_instance):
        reports = advise_many(_sweep_requests(tiny_instance)[:2])
        assert [r.result.solver for r in reports] == ["qp", "qp"]


# ----------------------------------------------------------------------
# Removed baseline keyword spellings
# ----------------------------------------------------------------------
BASELINES = [
    round_robin_partitioning,
    hill_climb_partitioning,
    affinity_partitioning,
    greedy_binpack_partitioning,
]


class TestBaselineSignatureNormalization:
    @pytest.mark.parametrize("baseline", BASELINES)
    def test_parameters_keyword_removed(self, baseline, tiny_instance):
        # The deprecation cycle is complete: the old spelling is a
        # TypeError carrying the migration message, not a warning.
        with pytest.raises(TypeError, match="rename it to params="):
            baseline(
                tiny_instance, 2,
                parameters=CostParameters(network_penalty=4.0), seed=0,
            )

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_unknown_keyword_rejected(self, baseline, tiny_instance):
        with pytest.raises(TypeError, match="unexpected keyword"):
            baseline(tiny_instance, 2, not_a_knob=1)

    def test_both_spellings_rejected(self, tiny_instance):
        with pytest.raises(TypeError, match="no longer accepts"):
            round_robin_partitioning(
                tiny_instance, 2,
                params=CostParameters(), parameters=CostParameters(),
            )

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_seed_accepted_positionally(self, baseline, tiny_instance):
        result = baseline(tiny_instance, 2, None, 3)
        assert result.objective > 0


class TestAdvisorInstanceLru:
    def test_instance_caches_bounded(self):
        advisor = Advisor(instance_cache_capacity=2)
        instances = [small_random_instance(seed) for seed in (0, 1, 2)]
        for instance in instances:
            advisor.advise(SolveRequest(instance, 2, strategy="round-robin"))
        assert len(advisor._coefficient_caches) == 2
        # Evicted counters keep the totals monotone.
        stats = advisor.cache_stats()
        assert stats["coefficient_misses"] == 3

    def test_capacity_validated(self):
        with pytest.raises(OptionsError):
            Advisor(instance_cache_capacity=0)


class TestCliRequestMapping:
    def _args(self, **overrides):
        import argparse

        defaults = dict(
            solver="sa", sites=2, penalty=8.0, load_balance=0.1,
            disjoint=False, time_limit=None, seed=None, restarts=None,
            jobs=None, backend=None,
            compress="off", compress_tolerance=None,
            current_layout=None, migration_cost=0.0,
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_chain_budget_is_stage_scoped(self, tiny_instance):
        from repro.cli import _advise_request

        request = _advise_request(
            self._args(solver="sa-portfolio->qp", restarts=4),
            tiny_instance, CostParameters(),
        )
        # The SA stage stays unbudgeted (fixed-seed determinism); only
        # the MIP stage carries the implicit 60s cap.
        assert request.time_limit is None
        assert request.options["qp"] == {"time_limit": 60.0}
        assert request.options["sa-portfolio"] == {"restarts": 4}

    def test_qp_heavy_gets_implicit_budget(self, tiny_instance):
        from repro.cli import _advise_request

        request = _advise_request(
            self._args(solver="qp-heavy"), tiny_instance, CostParameters()
        )
        assert request.options["time_limit"] == 60.0

    def test_explicit_single_restart_reaches_hillclimb(self, tiny_instance):
        from repro.cli import _advise_request

        request = _advise_request(
            self._args(solver="hillclimb", restarts=1),
            tiny_instance, CostParameters(),
        )
        assert request.options["restarts"] == 1


class TestSweepStrategies:
    def test_sweep_portfolio_actually_runs_a_portfolio(self, tiny_instance):
        from repro.analysis.sweeps import SweepCaches, _solve

        caches = SweepCaches(tiny_instance)
        result = _solve(
            caches, 2, CostParameters(), "sa-portfolio", 10.0, 0,
            SaOptions(inner_loops=3, max_outer_loops=3, patience=1),
        )
        # The strategy's best-of-4 default applies; SaOptions' own
        # restarts=1 default must not pin the sweep to a single run.
        assert result.metadata["restarts"] == 4

    def test_sweep_accepts_registry_baselines(self, tiny_instance):
        from repro.analysis.sweeps import penalty_sweep

        series = penalty_sweep(
            tiny_instance, solver="round-robin", penalties=(2.0, 8.0)
        )
        assert len(series.points) == 2


class TestSolveReport:
    def test_report_carries_serving_metadata(self, tiny_instance):
        advisor = Advisor()
        request = SolveRequest(
            tiny_instance, 2, strategy="sa", options=SA_TEST_OPTIONS, seed=0
        )
        report = advisor.advise(request)
        assert report.request is request
        assert report.wall_time >= report.result.wall_time
        assert set(report.cache_stats) == {
            "coefficient_hits", "coefficient_misses",
            "coefficient_evictions",
        }
        assert report.degraded_from is None
        assert advisor.requests_served == 1
        assert "SolveReport" in repr(report)
