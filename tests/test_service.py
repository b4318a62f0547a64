"""Async advisor service: coalescing, admission control, shedding, wire.

The load-bearing test is the **determinism contract**
(:class:`TestCoalescingDeterminism`): with shedding disabled, a
concurrent batch through :class:`~repro.service.AsyncAdvisor` — however
many duplicates it carries — yields reports bitwise identical to a
sequential ``advisor.advise`` loop over the *deduplicated* request
sequence in admission order, including the per-request ``cache_stats``
deltas.  Concurrency buys coalescing and backpressure, never different
arithmetic.

Queue pressure is built deterministically by submitting *before*
:meth:`~repro.service.AsyncAdvisor.start`: entries queue up, so the
k-th submission is admitted at depth k.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api import Advisor, SolveRequest
from repro.costmodel.coefficients import CoefficientCache
from repro.exceptions import OptionsError, RejectedError, TransportError
from repro.service import (
    AsyncAdvisor,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    SheddingPolicy,
    strategy_rank,
)
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.shedding import LEVEL_HARD, LEVEL_LIGHT, LEVEL_NONE
from repro.service.wire import (
    REPORT_FORMAT_VERSION,
    report_from_wire,
    report_to_wire,
)
from tests.conftest import small_random_instance

SA_OPTIONS = {"inner_loops": 4, "max_outer_loops": 8, "patience": 3}


def sa_request(instance, seed: int = 1, **changes) -> SolveRequest:
    base = SolveRequest(
        instance=instance,
        num_sites=2,
        strategy="sa",
        options=dict(SA_OPTIONS),
        seed=seed,
    )
    return base.with_(**changes) if changes else base


def run_service(requests, config=None, *, clock=None, clients=None):
    """Submit all requests concurrently (enqueued before the worker
    starts); returns (reports, stats)."""

    async def main():
        kwargs = {} if clock is None else {"clock": clock}
        service = AsyncAdvisor(config=config, **kwargs)
        names = clients or ["default"] * len(requests)
        tasks = [
            asyncio.ensure_future(service.submit(request, client=name))
            for request, name in zip(requests, names)
        ]
        for _ in range(3 * len(requests)):
            await asyncio.sleep(0)
        async with service:
            reports = await asyncio.gather(*tasks, return_exceptions=True)
        return reports, service

    return asyncio.run(main())


def assert_bitwise_equal(report, reference):
    assert np.array_equal(report.result.x, reference.result.x)
    assert np.array_equal(report.result.y, reference.result.y)
    assert report.result.objective == reference.result.objective
    assert report.strategy == reference.strategy
    assert report.cache_stats == reference.cache_stats


# ----------------------------------------------------------------------
# the determinism contract
# ----------------------------------------------------------------------
class TestCoalescingDeterminism:
    def test_identical_requests_share_one_report(self):
        instance = small_random_instance(11)
        requests = [sa_request(instance, seed=1)] * 6
        reports, service = run_service(requests)
        first = reports[0]
        assert all(report is first for report in reports)
        assert service.advisor.requests_served == 1
        assert (
            service.counters["coalesced"]
            + service.counters["result_cache_hits"]
            == 5
        )

    def test_batch_matches_sequential_dedup_loop(self):
        """N identical + near-identical (seed-differing) concurrent
        requests == a sequential advise loop over the deduplicated
        sequence, cache_stats bookkeeping included."""
        instance = small_random_instance(12)
        unique = [sa_request(instance, seed=seed) for seed in (1, 2, 3)]
        # Interleave duplicates: admission order of first occurrences
        # is unique[0], unique[1], unique[2].
        batch = [
            unique[0], unique[0], unique[1], unique[0],
            unique[1], unique[2], unique[2],
        ]
        reports, service = run_service(batch)
        sequential = Advisor()
        references = [sequential.advise(request) for request in unique]
        by_key = {
            request.canonical_key(): reference
            for request, reference in zip(unique, references)
        }
        for request, report in zip(batch, reports):
            assert_bitwise_equal(report, by_key[request.canonical_key()])
        assert service.advisor.requests_served == len(unique)
        assert sequential.requests_served == len(unique)

    def test_submissions_after_completion_hit_result_cache(self):
        instance = small_random_instance(13)
        request = sa_request(instance, seed=4)

        async def main():
            async with AsyncAdvisor() as service:
                first = await service.submit(request)
                second = await service.submit(request)
                return first, second, service

        first, second, service = asyncio.run(main())
        assert second is first
        assert service.counters["result_cache_hits"] == 1
        assert service.advisor.requests_served == 1

    def test_result_cache_evicts_lru(self):
        instance = small_random_instance(14)
        config = ServiceConfig(result_cache_capacity=1)
        requests = [sa_request(instance, seed=seed) for seed in (1, 2)]

        async def main():
            async with AsyncAdvisor(config=config) as service:
                await service.submit(requests[0])
                await service.submit(requests[1])  # evicts seed 1
                again = await service.submit(requests[0])  # re-solved
                return again, service

        again, service = asyncio.run(main())
        assert service.counters["result_cache_evictions"] >= 1
        assert service.advisor.requests_served == 3
        reference = Advisor().advise(requests[0])
        assert np.array_equal(again.result.x, reference.result.x)
        assert again.result.objective == reference.result.objective


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_full_rejects_with_structured_reason(self):
        instance = small_random_instance(15)
        config = ServiceConfig(max_pending=2)
        requests = [sa_request(instance, seed=seed) for seed in range(4)]
        reports, service = run_service(requests, config)
        rejected = [r for r in reports if isinstance(r, RejectedError)]
        served = [r for r in reports if not isinstance(r, Exception)]
        assert len(rejected) == 2 and len(served) == 2
        assert all(r.reason == "queue-full" for r in rejected)
        assert service.counters["rejected_queue_full"] == 2
        # Never silent: every submission was answered one way or the
        # other.
        assert service.counters["received"] == 4

    def test_rate_limit_rejects_with_retry_after(self):
        instance = small_random_instance(16)
        config = ServiceConfig(rate_limit=1.0, rate_burst=2)
        clock = FakeClock()
        requests = [sa_request(instance, seed=seed) for seed in range(3)]
        reports, service = run_service(
            requests, config, clock=clock, clients=["a", "a", "a"]
        )
        rejected = [r for r in reports if isinstance(r, RejectedError)]
        assert len(rejected) == 1
        assert rejected[0].reason == "rate-limited"
        assert rejected[0].retry_after == pytest.approx(1.0)
        assert service.counters["rejected_rate_limited"] == 1

    def test_rate_limit_is_per_client(self):
        instance = small_random_instance(16)
        config = ServiceConfig(rate_limit=1.0, rate_burst=1)
        clock = FakeClock()
        requests = [sa_request(instance, seed=seed) for seed in range(2)]
        reports, _ = run_service(
            requests, config, clock=clock, clients=["a", "b"]
        )
        assert not any(isinstance(r, Exception) for r in reports)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, now=clock())
        assert bucket.try_acquire(clock()) == 0.0
        assert bucket.try_acquire(clock()) == 0.0
        retry = bucket.try_acquire(clock())
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire(clock()) == 0.0

    def test_limiter_forgets_lru_clients_harmlessly(self):
        clock = FakeClock()
        limiter = RateLimiter(1.0, 1, max_clients=2, clock=clock)
        assert limiter.admit("a") == 0.0
        assert limiter.admit("b") == 0.0
        assert limiter.admit("c") == 0.0  # evicts a
        assert len(limiter) == 2
        # a comes back with a fresh (full) bucket: never spuriously
        # rejected, the bound only forgets refill debt.
        assert limiter.admit("a") == 0.0

    def test_zero_rate_disables(self):
        limiter = RateLimiter(0.0, 1, clock=FakeClock())
        assert all(limiter.admit("x") == 0.0 for _ in range(100))
        assert len(limiter) == 0


# ----------------------------------------------------------------------
# load shedding
# ----------------------------------------------------------------------
class TestShedding:
    def policy(self, threshold=2, hard=4) -> SheddingPolicy:
        return SheddingPolicy(
            ServiceConfig(shed_threshold=threshold, shed_hard_threshold=hard)
        )

    def test_strategy_rank_covers_chains(self):
        assert strategy_rank("qp") == 2
        assert strategy_rank("sa-portfolio") == 1
        assert strategy_rank("greedy") == 0
        assert strategy_rank("sa-portfolio->qp") == 2
        assert strategy_rank("somebody-elses-strategy") == 0

    def test_levels(self):
        policy = self.policy(threshold=2, hard=4)
        assert policy.level(0) == LEVEL_NONE
        assert policy.level(1) == LEVEL_NONE
        assert policy.level(2) == LEVEL_LIGHT
        assert policy.level(3) == LEVEL_LIGHT
        assert policy.level(4) == LEVEL_HARD
        disabled = SheddingPolicy(ServiceConfig())
        assert disabled.level(10_000) == LEVEL_NONE

    def test_light_degrades_qp_family_only(self):
        instance = small_random_instance(17)
        policy = self.policy()
        qp = sa_request(instance).with_(strategy="qp", options={})
        degraded, origin = policy.degrade(qp, LEVEL_LIGHT)
        assert degraded.strategy == "sa-portfolio"
        assert origin == "qp"
        sa = sa_request(instance)
        same, origin = policy.degrade(sa, LEVEL_LIGHT)
        assert same is sa and origin is None

    def test_hard_degrades_to_greedy_floor(self):
        instance = small_random_instance(17)
        policy = self.policy()
        sa = sa_request(instance)
        degraded, origin = policy.degrade(sa, LEVEL_HARD)
        assert degraded.strategy == "greedy" and origin == "sa"
        # greedy requires replication; the disjoint floor is one anneal
        # (a disjoint "sa" request is already at its floor).
        disjoint_qp = sa.with_(
            strategy="qp", options={}, allow_replication=False
        )
        degraded, origin = policy.degrade(disjoint_qp, LEVEL_HARD)
        assert degraded.strategy == "sa" and origin == "qp"
        disjoint_sa = sa.with_(allow_replication=False)
        same, origin = policy.degrade(disjoint_sa, LEVEL_HARD)
        assert same is disjoint_sa and origin is None
        baseline = sa.with_(strategy="greedy", options={})
        same, origin = policy.degrade(baseline, LEVEL_HARD)
        assert same is baseline and origin is None

    def test_pressure_degrades_and_records_provenance(self):
        instance = small_random_instance(18)
        config = ServiceConfig(
            max_pending=64, shed_threshold=1, shed_hard_threshold=2
        )
        requests = [sa_request(instance, seed=seed) for seed in range(4)]
        reports, service = run_service(requests, config)
        assert not any(isinstance(r, Exception) for r in reports)
        # Depth 0: served as asked.  Depth >= 2: greedy floor with
        # provenance, answering the *submitted* request.
        assert reports[0].degraded_from is None
        assert reports[0].strategy == "sa"
        for index in (2, 3):
            report = reports[index]
            assert report.degraded_from == "sa"
            assert report.strategy == "greedy"
            assert report.result.metadata["degraded_from"] == "sa"
            assert report.request == requests[index]
        assert service.counters["shed_hard"] == 2

    def test_degraded_reports_never_enter_result_cache(self):
        instance = small_random_instance(18)
        config = ServiceConfig(shed_threshold=1, shed_hard_threshold=1)
        requests = [sa_request(instance, seed=seed) for seed in range(2)]

        async def main():
            service = AsyncAdvisor(config=config)
            tasks = [
                asyncio.ensure_future(service.submit(request))
                for request in requests
            ]
            for _ in range(6):
                await asyncio.sleep(0)
            async with service:
                pressured = await asyncio.gather(*tasks)
                # Same loop, queue now empty: the degraded answer for
                # seed 1 was not cached, so an unpressured resubmission
                # gets the real solve.
                calm = await service.submit(requests[1])
            return pressured, calm

        pressured, calm = asyncio.run(main())
        assert pressured[1].degraded_from == "sa"
        assert calm.degraded_from is None
        assert calm.strategy == "sa"


# ----------------------------------------------------------------------
# bounded caches (satellite)
# ----------------------------------------------------------------------
class TestCoefficientCacheCapacity:
    def test_unbounded_by_default(self, tiny_instance):
        from repro.costmodel.config import CostParameters

        cache = CoefficientCache(tiny_instance)
        for penalty in range(1, 12):
            cache.coefficients(CostParameters(network_penalty=float(penalty)))
        assert cache.evictions == 0
        assert cache.stats() == {
            "hits": 0, "misses": 11, "evictions": 0,
        }

    def test_capacity_evicts_lru(self, tiny_instance):
        from repro.costmodel.config import CostParameters

        cache = CoefficientCache(tiny_instance, capacity=2)
        one = CostParameters(network_penalty=1.0)
        two = CostParameters(network_penalty=2.0)
        three = CostParameters(network_penalty=3.0)
        cache.coefficients(one)
        cache.coefficients(two)
        cache.coefficients(one)      # refresh one; two is now LRU
        cache.coefficients(three)    # evicts two
        assert cache.evictions == 1
        cache.coefficients(one)      # still cached
        assert cache.stats()["hits"] == 2
        cache.coefficients(two)      # must rebuild
        assert cache.stats()["misses"] == 4

    def test_invalid_capacity_rejected(self, tiny_instance):
        with pytest.raises(OptionsError):
            CoefficientCache(tiny_instance, capacity=0)

    def test_advisor_exposes_eviction_stats(self):
        instance = small_random_instance(19)
        advisor = Advisor(coefficient_capacity=1)
        report = advisor.advise(sa_request(instance, seed=1))
        assert set(report.cache_stats) == {
            "coefficient_hits", "coefficient_misses",
            "coefficient_evictions",
        }
        stats = advisor.cache_stats()
        assert stats["coefficient_evictions"] == 0


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert not config.shedding_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_pending": 0},
            {"rate_limit": -1.0},
            {"rate_burst": 0},
            {"max_clients": 0},
            {"result_cache_capacity": -1},
            {"shed_threshold": -1},
            {"shed_hard_threshold": 3},  # requires shed_threshold
            {"shed_threshold": 5, "shed_hard_threshold": 2},  # < light
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(OptionsError):
            ServiceConfig(**kwargs)


# ----------------------------------------------------------------------
# the socket front end
# ----------------------------------------------------------------------
class TestSocketService:
    def test_round_trip_matches_in_process_advise(self):
        instance = small_random_instance(21)
        request = sa_request(instance, seed=2)
        with ServerThread() as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                report = client.advise(request)
        reference = Advisor().advise(request)
        assert_bitwise_equal(report, reference)
        assert report.request.to_dict() == request.to_dict()
        # The client-side report is fully functional: feasibility was
        # re-checked on decode, coefficients rebuilt canonically.
        assert report.result.coefficients.num_attributes > 0

    def test_default_portfolio_forks_from_the_served_process(
        self, monkeypatch
    ):
        """The default ``sa-portfolio`` forks its workers from a process
        with the server's threads running, and answers as serial does."""
        from repro.sa import options as sa_options

        monkeypatch.setattr(sa_options, "usable_cores", lambda: 2)
        instance = small_random_instance(24)
        request = SolveRequest(
            instance=instance, num_sites=2, strategy="sa-portfolio",
            options=dict(SA_OPTIONS), seed=5,
        )
        with ServerThread() as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                report = client.advise(request)
        assert report.metadata["executor"] == "process"
        reference = Advisor().advise(request.with_options(jobs=1))
        assert reference.metadata["executor"] == "serial"
        assert_bitwise_equal(report, reference)

    def test_pipelined_duplicates_coalesce_server_side(self):
        instance = small_random_instance(22)
        request = sa_request(instance, seed=3)
        with ServerThread() as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                reports = client.advise_many([request] * 4)
                stats = client.stats()
                client.shutdown()
        assert stats["received"] == 4
        assert stats["served"] == 1
        assert stats["coalesced"] + stats["result_cache_hits"] == 3
        reference = Advisor().advise(request)
        for report in reports:
            assert_bitwise_equal(report, reference)

    def test_rate_limited_rejection_is_structured_on_the_wire(self):
        instance = small_random_instance(23)
        config = ServiceConfig(rate_limit=0.001, rate_burst=1)
        with ServerThread(config=config) as server:
            with ServiceClient(
                "127.0.0.1", server.port, client="tenant"
            ) as client:
                client.advise(sa_request(instance, seed=1))
                with pytest.raises(RejectedError) as caught:
                    client.advise(sa_request(instance, seed=2))
        assert caught.value.reason == "rate-limited"
        assert caught.value.retry_after > 0

    def test_handshake_rejects_wrong_envelope(self):
        from repro.sa.transport.protocol import Endpoint
        import socket as socket_module

        with ServerThread() as server:
            sock = socket_module.create_connection(
                ("127.0.0.1", server.port)
            )
            endpoint = Endpoint(sock)
            endpoint.send(
                "hello", protocol_versions=[1], envelope="restart-task/9"
            )
            answer = endpoint.recv(10.0)
            endpoint.close()
        assert answer["kind"] == "error"
        assert "envelope" in answer["message"]

    def test_handshake_rejects_no_shared_protocol_version(self):
        import socket as socket_module

        from repro.sa.transport.protocol import Endpoint

        with ServerThread() as server:
            sock = socket_module.create_connection(
                ("127.0.0.1", server.port)
            )
            endpoint = Endpoint(sock)
            endpoint.send(
                "hello", protocol_versions=[999],
                envelope="solve-report/1",
            )
            answer = endpoint.recv(10.0)
            endpoint.close()
        assert answer["kind"] == "error"
        assert "protocol version" in answer["message"]


# ----------------------------------------------------------------------
# the report codec
# ----------------------------------------------------------------------
class TestReportCodec:
    def test_round_trip_is_bitwise(self):
        instance = small_random_instance(24)
        request = sa_request(instance, seed=5)
        report = Advisor().advise(request)
        decoded = report_from_wire(report_to_wire(report))
        assert_bitwise_equal(decoded, report)
        assert decoded.request.to_dict() == request.to_dict()
        assert decoded.wall_time == report.wall_time
        assert len(decoded.stage_results) == len(report.stage_results)

    def test_unknown_format_version_refused(self):
        instance = small_random_instance(24)
        payload = report_to_wire(Advisor().advise(sa_request(instance)))
        payload["format_version"] = REPORT_FORMAT_VERSION + 1
        with pytest.raises(TransportError, match="format_version"):
            report_from_wire(payload)
