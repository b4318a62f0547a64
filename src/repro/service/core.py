"""The in-process asyncio facade over a shared :class:`~repro.api.Advisor`.

:class:`AsyncAdvisor` is the serving layer itself, with no socket in
sight — the socket server (:mod:`repro.service.server`) is a thin frame
pump over it, and tests and embedders use it directly.  One instance
owns:

* a long-lived :class:`~repro.api.Advisor` (a coefficient cache shared
  across every request served),
* **request coalescing** — requests with identical canonical JSON
  (:meth:`~repro.api.SolveRequest.canonical_key`) that are in flight
  together share one underlying solve and all receive the *same*
  :class:`~repro.api.SolveReport`,
* **admission control** — a bounded pending queue plus per-client
  token-bucket rate limits; overload answers with a structured
  :class:`~repro.exceptions.RejectedError`, never a silent drop,
* a bounded **result cache** (LRU by canonical key; undegraded reports
  only), and
* the **load-shedding policy** of :mod:`repro.service.shedding` —
  under queue pressure expensive strategies are served by cheaper ones
  (``qp`` → ``sa-portfolio`` → ``greedy``), recorded as
  ``metadata["degraded_from"]``.

Determinism contract
--------------------

Solves execute strictly in admission order on one worker thread, so a
degradation-free run over a request sequence — coalesced or not — is
bitwise identical to a sequential ``advisor.advise`` loop over the
deduplicated sequence, *including* the per-request ``cache_stats``
deltas (pinned by ``tests/test_service.py``).  Concurrency buys
coalescing and backpressure, never different arithmetic.

``submit`` may be called before :meth:`start`: entries queue up and are
served once the worker runs.  Tests use this to build deterministic
queue pressure.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.api.advisor import Advisor
from repro.api.report import SolveReport
from repro.api.request import SolveRequest
from repro.exceptions import RejectedError
from repro.service.config import ServiceConfig
from repro.service.ratelimit import RateLimiter
from repro.service.shedding import LEVEL_HARD, LEVEL_LIGHT, SheddingPolicy
from repro.stats.estimator import TraceCollector


@dataclass
class _Pending:
    """One admitted solve and everything hanging off it."""

    key: str
    request: SolveRequest            # as submitted (the coalescing key)
    exec_request: SolveRequest       # what actually runs (possibly shed)
    degraded_from: str | None
    future: "asyncio.Future[SolveReport]"


class AsyncAdvisor:
    """Concurrent front end over one shared :class:`~repro.api.Advisor`.

    Use as an async context manager, or call :meth:`start` / :meth:`stop`
    explicitly::

        async with AsyncAdvisor() as service:
            report = await service.submit(request, client="tenant-a")
    """

    def __init__(
        self,
        advisor: Advisor | None = None,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.advisor = advisor or Advisor()
        self.config = config or ServiceConfig()
        self.shedding = SheddingPolicy(self.config)
        self.rate_limiter = RateLimiter(
            self.config.rate_limit,
            self.config.rate_burst,
            max_clients=self.config.max_clients,
            clock=clock,
        )
        self._queue: asyncio.Queue[_Pending | None] = asyncio.Queue()
        self._inflight: dict[str, _Pending] = {}
        self._results: OrderedDict[str, SolveReport] = OrderedDict()
        self._executor: ThreadPoolExecutor | None = None
        self._worker: asyncio.Task[None] | None = None
        # Per-client workload traces (populated only when the
        # `collect_traces` config knob is on), LRU-bounded like the
        # rate-limiter's client buckets.
        self._traces: OrderedDict[str, TraceCollector] = OrderedDict()
        self.counters = {
            "received": 0,
            "served": 0,
            "coalesced": 0,
            "result_cache_hits": 0,
            "result_cache_evictions": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
            "shed_light": 0,
            "shed_hard": 0,
            "trace_events": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncAdvisor":
        """Start the single solve worker (idempotent)."""
        if self._worker is None:
            # One thread: solves run off the event loop but strictly in
            # admission order — the determinism contract.
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="advisor-solve"
            )
            self._worker = asyncio.ensure_future(self._serve_loop())
        return self

    async def stop(self) -> None:
        """Drain the queue, then stop the worker and its thread."""
        if self._worker is None:
            return
        await self._queue.put(None)
        await self._worker
        self._worker = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "AsyncAdvisor":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def submit(
        self, request: SolveRequest, *, client: str = "default"
    ) -> SolveReport:
        """Admit one request and await its report.

        Raises :class:`~repro.exceptions.RejectedError` (reason
        ``"rate-limited"`` or ``"queue-full"``) when admission control
        refuses it; any solver error propagates to the submitter (and
        to every coalesced co-submitter).
        """
        self.counters["received"] += 1
        retry_after = self.rate_limiter.admit(client)
        if retry_after > 0.0:
            self.counters["rejected_rate_limited"] += 1
            raise RejectedError(
                "rate-limited",
                f"client {client!r} exceeded "
                f"{self.config.rate_limit:g} requests/second "
                f"(burst {self.config.rate_burst}); retry in "
                f"{retry_after:.3f}s",
                retry_after=retry_after,
            )
        key = request.canonical_key()
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.counters["coalesced"] += 1
            return await asyncio.shield(inflight.future)
        cached = self._results.get(key)
        if cached is not None:
            self.counters["result_cache_hits"] += 1
            self._results.move_to_end(key)
            return cached
        depth = self._queue.qsize()
        if depth >= self.config.max_pending:
            self.counters["rejected_queue_full"] += 1
            raise RejectedError(
                "queue-full",
                f"pending queue is full ({depth} of "
                f"{self.config.max_pending} solves waiting)",
            )
        level = self.shedding.level(depth)
        exec_request, degraded_from = self.shedding.degrade(request, level)
        if degraded_from is not None:
            if level >= LEVEL_HARD:
                self.counters["shed_hard"] += 1
            elif level >= LEVEL_LIGHT:
                self.counters["shed_light"] += 1
        entry = _Pending(
            key=key,
            request=request,
            exec_request=exec_request,
            degraded_from=degraded_from,
            future=asyncio.get_running_loop().create_future(),
        )
        self._inflight[key] = entry
        self._queue.put_nowait(entry)
        return await asyncio.shield(entry.future)

    async def _serve_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            if entry is None:
                return
            try:
                report = await loop.run_in_executor(
                    self._executor, self._solve, entry
                )
            except Exception as error:  # propagate to every waiter
                if not entry.future.cancelled():
                    entry.future.set_exception(error)
            else:
                if not entry.future.cancelled():
                    entry.future.set_result(report)
                self.counters["served"] += 1
                if (
                    entry.degraded_from is None
                    and self.config.result_cache_capacity > 0
                ):
                    self._results[entry.key] = report
                    while (
                        len(self._results)
                        > self.config.result_cache_capacity
                    ):
                        self._results.popitem(last=False)
                        self.counters["result_cache_evictions"] += 1
            finally:
                # Remove from the in-flight map only after the future
                # resolved, so a submit racing this completion either
                # coalesces onto the resolved future or hits the result
                # cache — never re-solves an identical in-flight key.
                del self._inflight[entry.key]

    def _solve(self, entry: _Pending) -> SolveReport:
        """Runs on the worker thread (the advisor serialises anyway)."""
        report = self.advisor.advise(entry.exec_request)
        if entry.degraded_from is not None:
            report.result.metadata["degraded_from"] = entry.degraded_from
            # The report answers the *submitted* request; the degraded
            # execution shows in `strategy` and the metadata marker.
            report.request = entry.request
        return report

    # ------------------------------------------------------------------
    # workload traces (for online re-partitioning)
    # ------------------------------------------------------------------
    def record_event(
        self,
        query_name: str,
        rows: dict | None = None,
        *,
        client: str = "default",
    ) -> bool:
        """Log one query execution into ``client``'s trace.

        Returns ``True`` when recorded, ``False`` (a cheap no-op) when
        the service was configured without ``collect_traces`` — callers
        can report unconditionally.  Tracked clients are LRU-bounded by
        ``max_clients``; evicting a client forgets its trace.
        """
        if not self.config.collect_traces:
            return False
        collector = self._traces.get(client)
        if collector is None:
            collector = TraceCollector()
            self._traces[client] = collector
            while len(self._traces) > self.config.max_clients:
                self._traces.popitem(last=False)
        else:
            self._traces.move_to_end(client)
        collector.record(query_name, rows)
        self.counters["trace_events"] += 1
        return True

    def client_trace(self, client: str = "default") -> TraceCollector | None:
        """The trace collected for ``client``, or ``None``."""
        return self._traces.get(client)

    def merged_trace(self) -> TraceCollector:
        """All per-client traces folded into one collector.

        The workload-wide view to hand to
        :meth:`~repro.api.advisor.Advisor.readvise`; always returns a
        fresh collector (possibly empty), never an internal one.
        """
        merged = TraceCollector()
        for collector in self._traces.values():
            merged.merge(collector)
        return merged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Service counters plus the advisor's cache stats — the same
        document the socket server answers STATS frames with."""
        return {
            **self.counters,
            "pending": self._queue.qsize(),
            "inflight": len(self._inflight),
            "result_cache_size": len(self._results),
            "trace_clients": len(self._traces),
            "advisor": self.advisor.cache_stats(),
        }
