"""Online re-partitioning: layout carrier, migration term, readvise.

The contracts pinned here:

* :class:`~repro.partition.current_layout.CurrentLayout` validates at
  construction, round-trips through JSON and pickle exactly, and
  rebuilds the ``(|A|, |S|)`` indicator with zero-padding when the
  cluster grew (never when it shrank),
* :class:`~repro.api.request.SolveRequest` validates the layout fields
  at construction and its serialised form is **byte-stable** for
  layout-free requests — legacy payloads, canonical JSON, service
  cache keys and queue envelopes are unchanged by this feature,
* the migration term ``sum c5[a,s] y[a,s]`` enters objective (4), the
  breakdown, the lower bound and the incremental evaluator exactly
  (dense parity to 1e-9, bitwise rollback),
* every strategy that ignores warm starts is **bitwise identical**
  with ``current_layout`` + ``migration_cost=0`` to the layout-free
  solve, and SA's warm start makes the migrated best never lose to the
  deterministic stay-put solution (replicated and disjoint, serial and
  socket backends),
* :meth:`~repro.api.advisor.Advisor.readvise` produces a consistent
  :class:`~repro.api.report.MigrationReport` from every trace form,
* the streaming decayed collector and the estimator edge cases
  (empty trace, zero window, unknown query names) raise
  :class:`~repro.exceptions.WorkloadError`, and re-estimating from a
  trace synthesised at the instance's own statistics reproduces
  ``f_q`` and ``n_{a,q}``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Advisor, SolveRequest
from repro.costmodel.coefficients import attach_migration, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator
from repro.costmodel.incremental import IncrementalEvaluator
from repro.exceptions import OptionsError, WorkloadError
from repro.partition import CurrentLayout
from repro.sa.annealer import warm_start_solution
from repro.sa.subsolve import SubproblemSolver
from repro.stats import (
    DecayedTraceCollector,
    QueryEvent,
    TraceCollector,
    reestimate_from_statistics,
    reestimate_instance,
)
from repro.stats.estimator import estimate_statistics
from tests.conftest import random_feasible_solution, small_random_instance

SA_OPTIONS = {"inner_loops": 6, "max_outer_loops": 10, "patience": 4}


def layout_for(instance, num_sites: int, seed: int = 0) -> CurrentLayout:
    """A random feasible incumbent layout for ``instance``."""
    coefficients = build_coefficients(instance, CostParameters())
    _, y = random_feasible_solution(coefficients, num_sites, seed)
    return CurrentLayout.from_matrix(instance, y)


# ----------------------------------------------------------------------
# CurrentLayout
# ----------------------------------------------------------------------
class TestCurrentLayout:
    def test_validation_at_construction(self):
        with pytest.raises(OptionsError, match="num_sites"):
            CurrentLayout(num_sites=0, placements={"T.a": (0,)})
        with pytest.raises(OptionsError, match="no attribute placements"):
            CurrentLayout(num_sites=2, placements={})
        with pytest.raises(OptionsError, match="unplaced"):
            CurrentLayout(num_sites=2, placements={"T.a": ()})
        with pytest.raises(OptionsError, match="outside"):
            CurrentLayout(num_sites=2, placements={"T.a": (2,)})
        with pytest.raises(OptionsError, match="outside"):
            CurrentLayout(num_sites=2, placements={"T.a": (-1,)})
        with pytest.raises(OptionsError, match="non-integer"):
            CurrentLayout(num_sites=2, placements={"T.a": (0.5,)})

    def test_placements_normalised_and_frozen(self):
        layout = CurrentLayout(num_sites=3, placements={"T.a": [2, 0, 2]})
        assert layout.placements["T.a"] == (0, 2)
        with pytest.raises(TypeError):
            layout.placements["T.b"] = (1,)  # type: ignore[index]
        assert layout.attributes == frozenset({"T.a"})

    def test_json_round_trip_is_exact(self):
        instance = small_random_instance(1)
        layout = layout_for(instance, 3, seed=5)
        restored = CurrentLayout.from_json(layout.to_json())
        assert restored == layout
        assert restored.to_json() == layout.to_json()

    def test_pickle_round_trip(self):
        instance = small_random_instance(2)
        layout = layout_for(instance, 2, seed=7)
        assert pickle.loads(pickle.dumps(layout)) == layout

    def test_from_dict_rejects_unknown_version_and_missing_keys(self):
        with pytest.raises(OptionsError, match="format_version"):
            CurrentLayout.from_dict(
                {"format_version": 99, "num_sites": 1, "placements": {"a": [0]}}
            )
        with pytest.raises(OptionsError, match="misses key"):
            CurrentLayout.from_dict({"num_sites": 1})

    def test_from_result_matches_from_matrix(self):
        instance = small_random_instance(3)
        report = Advisor().advise(
            SolveRequest(instance, num_sites=2, strategy="greedy")
        )
        layout = CurrentLayout.from_result(report.result)
        assert layout == CurrentLayout.from_matrix(instance, report.result.y)
        np.testing.assert_array_equal(
            layout.to_matrix(instance, 2), report.result.y.astype(float)
        )

    def test_to_matrix_zero_pads_grown_cluster(self):
        instance = small_random_instance(4)
        layout = layout_for(instance, 2, seed=1)
        wide = layout.to_matrix(instance, 4)
        assert wide.shape == (len(instance.attributes), 4)
        np.testing.assert_array_equal(wide[:, 2:], 0.0)
        np.testing.assert_array_equal(wide[:, :2], layout.to_matrix(instance, 2))

    def test_to_matrix_rejects_shrink_and_mismatch(self):
        instance = small_random_instance(4)
        layout = layout_for(instance, 3, seed=1)
        with pytest.raises(OptionsError, match="only 2"):
            layout.to_matrix(instance, 2)
        other = small_random_instance(5, num_tables=2)
        with pytest.raises(OptionsError, match="do not match"):
            layout.to_matrix(other, 3)


# ----------------------------------------------------------------------
# SolveRequest: validation and byte-stability
# ----------------------------------------------------------------------
class TestRequestLayoutFields:
    def test_migration_cost_without_layout_rejected(self):
        instance = small_random_instance(0)
        with pytest.raises(OptionsError, match="without current_layout"):
            SolveRequest(instance, num_sites=2, migration_cost=1.0)

    def test_negative_migration_cost_rejected(self):
        instance = small_random_instance(0)
        layout = layout_for(instance, 2)
        with pytest.raises(OptionsError, match=">= 0"):
            SolveRequest(
                instance, num_sites=2,
                current_layout=layout, migration_cost=-1.0,
            )

    def test_layout_attribute_mismatch_rejected(self):
        instance = small_random_instance(0)
        other = small_random_instance(1, num_tables=2)
        layout = layout_for(other, 2)
        with pytest.raises(OptionsError, match="do not match"):
            SolveRequest(instance, num_sites=2, current_layout=layout)

    def test_layout_wider_than_request_rejected(self):
        instance = small_random_instance(0)
        layout = layout_for(instance, 3)
        with pytest.raises(OptionsError, match="spans 3 sites"):
            SolveRequest(instance, num_sites=2, current_layout=layout)

    def test_wrong_layout_type_rejected(self):
        instance = small_random_instance(0)
        with pytest.raises(OptionsError, match="must be a CurrentLayout"):
            SolveRequest(instance, num_sites=2, current_layout="layout.json")

    def test_dict_layout_coerced(self):
        instance = small_random_instance(0)
        layout = layout_for(instance, 2)
        request = SolveRequest(
            instance, num_sites=2, current_layout=layout.to_dict()
        )
        assert isinstance(request.current_layout, CurrentLayout)
        assert request.current_layout == layout

    def test_layout_free_payload_is_byte_stable(self):
        """A request without a layout serialises exactly as before the
        layout fields existed: no new keys, identical canonical JSON —
        the service's coalescing keys and queue envelopes for legacy
        requests are unchanged."""
        instance = small_random_instance(1)
        request = SolveRequest(instance, num_sites=2, strategy="greedy")
        payload = request.to_dict()
        assert "current_layout" not in payload
        assert "migration_cost" not in payload
        # from_dict of a legacy payload (which never had the keys)
        # equals the modern layout-free request, canonical form included.
        legacy = SolveRequest.from_dict(payload)
        assert legacy.current_layout is None
        assert legacy.migration_cost == 0.0
        assert legacy.canonical_json() == request.canonical_json()
        assert legacy.canonical_key() == request.canonical_key()

    def test_layout_round_trips_through_json(self):
        instance = small_random_instance(1)
        layout = layout_for(instance, 2, seed=3)
        request = SolveRequest(
            instance, num_sites=2, strategy="greedy",
            current_layout=layout, migration_cost=2.5,
        )
        restored = SolveRequest.from_json(request.to_json())
        assert restored.current_layout == layout
        assert restored.migration_cost == 2.5
        assert restored.canonical_json() == request.canonical_json()
        # Layout-carrying and layout-free requests never share a key.
        bare = request.with_(current_layout=None, migration_cost=0.0)
        assert bare.canonical_key() != request.canonical_key()


# ----------------------------------------------------------------------
# Evaluator: the migration term
# ----------------------------------------------------------------------
class TestEvaluatorMigration:
    def _setup(self, seed=0, num_sites=3, cost=2.0, lam=0.9):
        instance = small_random_instance(seed)
        base = build_coefficients(
            instance, CostParameters(load_balance_lambda=lam)
        )
        layout = layout_for(instance, num_sites, seed=seed + 10)
        coefficients = attach_migration(base, layout, cost, num_sites)
        return instance, base, coefficients

    def test_migration_cost_matches_formula(self):
        instance, _, coefficients = self._setup(cost=2.0)
        block = coefficients.migration
        widths = np.asarray(instance.attribute_widths(), dtype=float)
        np.testing.assert_allclose(
            block.c5, 2.0 * widths[:, None] * (1.0 - block.y0)
        )
        evaluator = SolutionEvaluator(coefficients)
        x, y = random_feasible_solution(coefficients, 3, 42)
        expected = float((block.c5 * y).sum())
        assert evaluator.migration_cost(y) == pytest.approx(expected)

    def test_incumbent_moves_nothing(self):
        _, _, coefficients = self._setup()
        evaluator = SolutionEvaluator(coefficients)
        assert evaluator.migration_cost(coefficients.migration.y0) == 0.0

    def test_objective_and_breakdown_gain_the_term(self):
        _, base, coefficients = self._setup(seed=1)
        dense = SolutionEvaluator(coefficients)
        plain = SolutionEvaluator(base)
        for seed in range(4):
            x, y = random_feasible_solution(coefficients, 3, seed)
            move = dense.migration_cost(y)
            assert dense.objective4(x, y) == pytest.approx(
                plain.objective4(x, y) + move, rel=1e-12
            )
            breakdown = dense.breakdown(x, y)
            assert breakdown.migration == pytest.approx(move)
            assert breakdown.objective4 == pytest.approx(dense.objective4(x, y))
            # Equation (5) loads carry no move term: blending is exact.
            lam = coefficients.parameters.load_balance_lambda
            assert dense.objective6(x, y) == pytest.approx(
                plain.objective6(x, y) + lam * move, rel=1e-12
            )


# ----------------------------------------------------------------------
# Incremental evaluator parity
# ----------------------------------------------------------------------
class TestIncrementalMigration:
    TOLERANCE = 1e-9

    def _gap(self, a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(b))

    def test_mutation_walks_match_dense(self):
        num_sites = 3
        for seed in range(3):
            instance = small_random_instance(seed)
            base = build_coefficients(
                instance, CostParameters(load_balance_lambda=0.5)
            )
            layout = layout_for(instance, num_sites, seed=seed + 50)
            coefficients = attach_migration(base, layout, 2.0, num_sites)
            dense = SolutionEvaluator(coefficients)
            incremental = IncrementalEvaluator(coefficients, num_sites)
            x, y = random_feasible_solution(coefficients, num_sites, seed)
            incremental.reset(x, y)
            rng = np.random.default_rng(seed + 99)
            for _ in range(20):
                if rng.random() < 0.5:
                    chosen = rng.choice(
                        coefficients.num_transactions, size=2, replace=False
                    )
                    incremental.move_transactions(
                        chosen, rng.integers(0, num_sites, 2)
                    )
                else:
                    incremental.delta_toggle_replicas(
                        rng.integers(0, coefficients.num_attributes, 4),
                        rng.integers(0, num_sites, 4),
                    )
                xm, ym = incremental.x_matrix(), incremental.y_matrix()
                assert self._gap(
                    incremental.objective4(), dense.objective4(xm, ym)
                ) < self.TOLERANCE
                assert self._gap(
                    incremental.objective6(), dense.objective6(xm, ym)
                ) < self.TOLERANCE

    def test_rollback_restores_migration_scalar_bitwise(self):
        num_sites = 3
        instance = small_random_instance(2)
        base = build_coefficients(instance, CostParameters())
        layout = layout_for(instance, num_sites, seed=8)
        coefficients = attach_migration(base, layout, 1.5, num_sites)
        incremental = IncrementalEvaluator(coefficients, num_sites)
        x, y = random_feasible_solution(coefficients, num_sites, 2)
        incremental.reset(x, y)
        before_objective = incremental.objective6()
        before_migration = incremental._migration
        incremental.begin_trial()
        incremental.delta_toggle_replicas([0, 1, 2], [0, 1, 2])
        incremental.move_transactions([0], [1])
        incremental.rollback()
        assert incremental.objective6() == before_objective
        assert incremental._migration == before_migration


# ----------------------------------------------------------------------
# Backward compatibility: layout + zero cost changes nothing
# ----------------------------------------------------------------------
class TestBackwardCompatibility:
    @pytest.mark.parametrize(
        "strategy", ["greedy", "affinity", "round-robin", "hillclimb", "qp"]
    )
    def test_zero_cost_layout_is_bitwise_inert(self, strategy):
        """Strategies that ignore warm starts must return bit-identical
        solutions whether or not an incumbent rides along at
        ``migration_cost=0`` — the layout only changes the arithmetic
        through the move term, never through its mere presence."""
        instance = small_random_instance(1)
        advisor = Advisor()
        bare = SolveRequest(
            instance, num_sites=2, strategy=strategy, seed=3
        )
        layout = CurrentLayout.from_result(
            advisor.advise(
                SolveRequest(instance, num_sites=2, strategy="round-robin")
            ).result
        )
        carrying = bare.with_(current_layout=layout, migration_cost=0.0)
        plain = advisor.advise(bare).result
        loaded = advisor.advise(carrying).result
        np.testing.assert_array_equal(plain.x, loaded.x)
        np.testing.assert_array_equal(plain.y, loaded.y)
        assert plain.objective == loaded.objective

    def test_sa_without_layout_unchanged_by_feature(self):
        """The layout-free SA path is untouched: explicit
        ``warm_start=None`` spells the same request."""
        instance = small_random_instance(2)
        advisor = Advisor()
        base = SolveRequest(
            instance, num_sites=2, strategy="sa",
            options=dict(SA_OPTIONS), seed=5,
        )
        a = advisor.advise(base).result
        b = advisor.advise(base.with_options(warm_start=None)).result
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.objective == b.objective


# ----------------------------------------------------------------------
# SA warm starts
# ----------------------------------------------------------------------
class TestSaWarmStart:
    @pytest.mark.parametrize("allow_replication", [True, False])
    def test_migrated_best_never_loses_to_stay_put(self, allow_replication):
        """SA warm-starts from the incumbent, so its best — measured on
        the migration-augmented objective (6) — is bounded by the
        deterministic stay-put solution on every instance and seed."""
        advisor = Advisor()
        for seed in range(3):
            instance = small_random_instance(seed)
            layout = layout_for(instance, 2, seed=seed + 20)
            request = SolveRequest(
                instance, num_sites=2, strategy="sa",
                options=dict(SA_OPTIONS), seed=seed,
                allow_replication=allow_replication,
                current_layout=layout, migration_cost=1.0,
            )
            coefficients = advisor.coefficients_for(request)
            subsolver = SubproblemSolver(coefficients, 2)
            stay_x, stay_y, _ = warm_start_solution(
                subsolver,
                coefficients.migration.y0,
                disjoint=not allow_replication,
            )
            evaluator = SolutionEvaluator(coefficients)
            stay = evaluator.objective6(stay_x, stay_y)
            result = advisor.advise(request).result
            best = evaluator.objective6(result.x, result.y)
            assert best <= stay + 1e-9 * max(1.0, abs(stay))

    def test_queue_backend_matches_serial_with_layout(self):
        """The task envelope carries the layout to workers: the socket
        backend's in-driver envelope loop replays bit-identically to
        serial."""
        instance = small_random_instance(3)
        layout = layout_for(instance, 2, seed=30)
        advisor = Advisor()
        results = {}
        for backend in ("serial", "socket"):
            request = SolveRequest(
                instance, num_sites=2, strategy="sa-portfolio",
                options={
                    **SA_OPTIONS, "restarts": 2, "backend": backend,
                    "workers": 0,
                },
                seed=7, current_layout=layout, migration_cost=1.0,
            )
            results[backend] = advisor.advise(request).result
        assert results["socket"].metadata["executor"] == "socket"
        np.testing.assert_array_equal(
            results["serial"].x, results["socket"].x
        )
        np.testing.assert_array_equal(
            results["serial"].y, results["socket"].y
        )
        assert results["serial"].objective == results["socket"].objective


# ----------------------------------------------------------------------
# readvise
# ----------------------------------------------------------------------
class TestReadvise:
    def _request(self, instance, layout, cost=1.0, **changes):
        base = SolveRequest(
            instance, num_sites=2, strategy="sa",
            options=dict(SA_OPTIONS), seed=4,
            current_layout=layout, migration_cost=cost,
        )
        return base.with_(**changes) if changes else base

    def test_requires_a_layout(self):
        instance = small_random_instance(0)
        with pytest.raises(OptionsError, match="current_layout"):
            Advisor().readvise(SolveRequest(instance, num_sites=2))

    def test_report_is_consistent(self):
        instance = small_random_instance(1)
        layout = layout_for(instance, 2, seed=11)
        report = Advisor().readvise(self._request(instance, layout, cost=2.0))
        verdict = report.migration
        assert verdict is not None
        assert verdict.migration_cost == 2.0
        assert verdict.recommendation in ("stay", "migrate")
        # total = base objective + lambda * move, and the warm start
        # bounds it by the stay-put cost.
        lam = report.request.parameters.load_balance_lambda
        assert verdict.total_cost == pytest.approx(
            verdict.solve_cost + lam * verdict.move_cost, rel=1e-9
        )
        assert verdict.total_cost <= verdict.stay_cost + 1e-9 * max(
            1.0, abs(verdict.stay_cost)
        )
        assert verdict.net_benefit == pytest.approx(
            verdict.stay_cost - verdict.total_cost
        )

    def test_bad_incumbent_flips_to_migrate(self):
        """A fully-replicated incumbent is expensive to keep, and since
        ``c5`` only charges *new* replicas, shrinking it is free: the
        re-solve abandons it at zero move cost — at any move price."""
        instance = small_random_instance(2)
        everywhere = CurrentLayout.from_matrix(
            instance, np.ones((len(instance.attributes), 2))
        )
        advisor = Advisor()
        for cost in (0.0, 1e9):
            verdict = advisor.readvise(
                self._request(instance, everywhere, cost=cost)
            ).migration
            assert verdict.recommendation == "migrate"
            assert verdict.move_cost == 0.0
            assert verdict.total_cost < verdict.stay_cost

    def test_single_site_is_always_stay(self):
        """One site admits exactly one layout: the re-solve reproduces
        the stay-put solution and the verdict is stay with no move."""
        instance = small_random_instance(2)
        only_site = CurrentLayout.from_matrix(
            instance, np.ones((len(instance.attributes), 1))
        )
        verdict = Advisor().readvise(
            self._request(instance, only_site, num_sites=1)
        ).migration
        assert verdict.recommendation == "stay"
        assert verdict.move_cost == 0.0
        assert verdict.total_cost == pytest.approx(verdict.stay_cost)

    @pytest.mark.parametrize("form", ["decayed", "batch", "mapping", "events"])
    def test_trace_forms_reestimate_the_instance(self, form):
        instance = small_random_instance(3)
        layout = layout_for(instance, 2, seed=13)
        events = [
            QueryEvent(query.name, dict(query.rows))
            for query in instance.queries
        ]
        if form == "decayed":
            trace = DecayedTraceCollector(half_life=100.0)
            for tick, event in enumerate(events):
                trace.observe(event.query_name, event.rows, at=float(tick))
        elif form == "batch":
            trace = TraceCollector()
            trace.extend(events)
        elif form == "mapping":
            trace = estimate_statistics(events)
        else:
            trace = events
        report = Advisor().readvise(
            self._request(instance, layout), trace=trace
        )
        assert report.request.instance.name.endswith("(traced)")
        assert report.migration is not None

    def test_empty_trace_raises(self):
        instance = small_random_instance(3)
        layout = layout_for(instance, 2, seed=13)
        with pytest.raises(WorkloadError, match="empty trace"):
            Advisor().readvise(
                self._request(instance, layout), trace=TraceCollector()
            )


# ----------------------------------------------------------------------
# Streaming statistics
# ----------------------------------------------------------------------
class TestDecayedTraceCollector:
    def test_half_life_must_be_positive(self):
        with pytest.raises(WorkloadError, match="half_life"):
            DecayedTraceCollector(half_life=0.0)

    def test_decay_halves_per_half_life(self):
        collector = DecayedTraceCollector(half_life=10.0)
        collector.observe("q", at=0.0)
        collector.observe("q", at=10.0)
        stats = collector.statistics()
        assert stats["q"].frequency == pytest.approx(1.5)
        # Rolling the clock forward decays the snapshot further.
        later = collector.statistics(now=20.0)
        assert later["q"].frequency == pytest.approx(0.75)
        assert collector.now == 20.0

    def test_row_means_are_decay_weighted(self):
        collector = DecayedTraceCollector(half_life=10.0)
        collector.observe("q", {"T": 2.0}, at=0.0)
        collector.observe("q", {"T": 4.0}, at=10.0)
        mean = collector.statistics()["q"].mean_rows["T"]
        assert mean == pytest.approx((0.5 * 2.0 + 4.0) / 1.5)

    def test_time_going_backwards_raises(self):
        collector = DecayedTraceCollector(half_life=10.0)
        collector.observe("q", at=5.0)
        with pytest.raises(WorkloadError, match="backwards"):
            collector.observe("q", at=4.0)

    def test_negative_rows_raise(self):
        collector = DecayedTraceCollector(half_life=10.0)
        with pytest.raises(WorkloadError, match="negative row count"):
            collector.observe("q", {"T": -1.0}, at=0.0)

    def test_recent_mix_outvotes_stale_history(self):
        collector = DecayedTraceCollector(half_life=5.0)
        for tick in range(20):
            collector.observe("old", at=float(tick))
        for tick in range(20, 30):
            collector.observe("new", at=float(tick))
        stats = collector.statistics()
        assert stats["new"].frequency > stats["old"].frequency


# ----------------------------------------------------------------------
# Estimator edge cases and the round-trip property
# ----------------------------------------------------------------------
class TestEstimatorEdgeCases:
    def test_empty_trace_raises(self):
        instance = small_random_instance(0)
        with pytest.raises(WorkloadError, match="empty trace"):
            reestimate_from_statistics(instance, {})
        with pytest.raises(WorkloadError, match="empty trace"):
            reestimate_instance(instance, [])

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_zero_window_raises(self, scale):
        collector = TraceCollector()
        collector.record("q")
        with pytest.raises(WorkloadError, match="frequency_scale"):
            collector.aggregate(frequency_scale=scale)

    def test_unknown_query_name_raises(self):
        instance = small_random_instance(0)
        with pytest.raises(WorkloadError, match="unknown query template"):
            reestimate_instance(instance, [QueryEvent("no-such-query")])

    def test_merge_equals_direct_recording(self):
        left, right, direct = TraceCollector(), TraceCollector(), TraceCollector()
        for collector in (left, direct):
            collector.record("a", {"T": 2.0})
        for collector in (right, direct):
            collector.record("a", {"T": 4.0})
            collector.record("b")
        left.merge(right)
        assert left.total_events == direct.total_events == 3
        merged, straight = left.aggregate(), direct.aggregate()
        assert merged.keys() == straight.keys()
        for name in merged:
            assert merged[name] == straight[name]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_self_trace_reproduces_statistics(self, seed):
        """A trace synthesised at the instance's own statistics —
        ``f_q`` events per query, each retrieving ``n_{a,q}`` rows —
        re-estimates to the original ``f_q`` and ``n_{a,q}``."""
        instance = small_random_instance(seed % 7)
        events = []
        for query in instance.queries:
            count = max(1, int(round(query.frequency)))
            events.extend(
                QueryEvent(query.name, dict(query.rows)) for _ in range(count)
            )
        rebuilt = reestimate_instance(instance, events)
        original = {query.name: query for query in instance.queries}
        for query in rebuilt.queries:
            reference = original[query.name]
            assert query.frequency == pytest.approx(
                max(1, int(round(reference.frequency)))
            )
            for table, rows in reference.rows.items():
                assert query.rows[table] == pytest.approx(rows)


# ----------------------------------------------------------------------
# Service trace collection
# ----------------------------------------------------------------------
class TestServiceTraces:
    def test_knob_off_is_a_noop(self):
        from repro.service import AsyncAdvisor

        service = AsyncAdvisor()
        assert service.record_event("q") is False
        assert service.client_trace() is None
        assert service.merged_trace().total_events == 0
        assert service.stats()["trace_clients"] == 0

    def test_per_client_traces_and_merge(self):
        from repro.service import AsyncAdvisor, ServiceConfig

        service = AsyncAdvisor(config=ServiceConfig(collect_traces=True))
        assert service.record_event("q1", {"T": 2.0}, client="alice") is True
        service.record_event("q1", client="bob")
        service.record_event("q2", client="bob")
        assert service.client_trace("alice").total_events == 1
        assert service.client_trace("bob").total_events == 2
        merged = service.merged_trace().aggregate()
        assert merged["q1"].executions == 2
        assert merged["q2"].executions == 1
        stats = service.stats()
        assert stats["trace_clients"] == 2
        assert stats["trace_events"] == 3

    def test_traces_are_lru_bounded_by_max_clients(self):
        from repro.service import AsyncAdvisor, ServiceConfig

        service = AsyncAdvisor(
            config=ServiceConfig(collect_traces=True, max_clients=2)
        )
        for client in ("a", "b", "c"):
            service.record_event("q", client=client)
        assert service.client_trace("a") is None
        assert service.stats()["trace_clients"] == 2
