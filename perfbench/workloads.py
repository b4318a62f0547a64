"""The three closed-loop workloads and the correctness checks on their answers.

A workload serves *rounds*: the same fixed set of requests over and over
until ``seconds`` have passed, stopping at the round boundary nearest to
it.  The benchmark seed draws the order of a single caller's round and
the request seeds of each served pass.  Every round does the same work,
so a run's figures move with the program and the machine, not with which
inputs a seed happened to draw.  Instances come from
``named_instance(name, seed=INSTANCE_SEED)``.  Requests carry no
``time_limit`` and no QP ``backend`` option, so they take the path a user
gets by default.

A run reports its *typical* round: a single caller's request has as its
latency the median over the rounds, and the throughput is the median over
rounds of the requests answered per second.  On a shared host the same
work takes up to a fifth longer for minutes at a time, so the reference
task of :mod:`reference` runs before the first round and after each one,
outside the rounds' times, and a single caller's rounds are scaled by
how fast the machine ran the reference just before and just after each,
a served run by its median reference time.

``exact-disjoint``
    The paper's Table-5 variant: disjoint QP at four sites, one fresh
    :class:`~repro.api.Advisor` per request, so every request pays
    coefficients, model-(7) assembly and HiGHS.  rndDupAt8x400 runs both
    uncompressed and with lossless compression; the pair checks that
    compression keeps the objective.  One caller.
``anneal-portfolio``
    The simulated-annealing family through one long-lived advisor and one
    caller: 4-restart serial portfolios, a disjoint single run, ``auto``
    above the QP size cutoff, and a migration-aware portfolio.  Each round
    has its own instance objects, so the advisor's per-identity caches
    start cold every round.  No MIP runs, so it is the control for work
    on the QP side.
``served-sweep``
    A :class:`~repro.service.ServerThread` hosting one advisor, driven by
    two :class:`~repro.service.ServiceClient` connections in a closed
    loop over a replicated-QP parameter sweep.  A round is one pass of
    the sweep; both clients finish it before the next starts.  Half of
    each pass is sent by both clients, so a third of the requests repeat
    and are answered from the result cache or coalesced.  Each pass has
    its own request seeds, so no pass is answered from an earlier one.
    The order is fixed: which requests queue behind which sets the
    latencies, and a drawn order made them differ by a fifth between
    seeds.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.api import Advisor, SolveRequest
from repro.costmodel.coefficients import attach_migration, build_coefficients
from repro.costmodel.config import CostParameters
from repro.costmodel.evaluator import SolutionEvaluator, check_solution_feasible
from repro.instances.library import named_instance
from repro.partition.current_layout import CurrentLayout
from repro.qp.solver import PAPER_GAP
from repro.service import ServerThread, ServiceClient

from reference import NOMINAL_S, reference_s

NUM_SITES = 4

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The seed of every random instance.  Seeds 0-58 and 20100116 were
#: tried on a 2-core x86_64 machine.  Drawing instances per run made the
#: spread between runs mostly a matter of which instances were drawn:
#: HiGHS time has a heavy tail (at seed 4 rndAt64x100 took 27 s against
#: 1.5 s typical, and one rndDupAt8x400 draw ran for minutes and grew
#: past 2 GB), and even among typical seeds a round's time varied by
#: +-17% and an annealing request's by up to 5x.  At seed 20 every HiGHS
#: solve ends by proof, ``auto`` routes rndAt32x100 to annealing, and the
#: round times of exact-disjoint (8.1 s) and anneal-portfolio (5.0 s)
#: sit at the median of the seeds that behave so.
INSTANCE_SEED = 20

#: A lower bound on one round's time on a fast machine: a run prepares
#: enough rounds that it rarely has to reuse one.
ROUND_FLOOR_S = 3.0


def _rounds_needed(seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_FLOOR_S))


def _time_reference(references: list[list[float]], repeats: int) -> None:
    references.append([reference_s() for _ in range(repeats)])


def _stop_after(elapsed: float, rounds: int, seconds: float) -> bool:
    """Stop at the round boundary nearest to ``seconds``."""
    return elapsed * (1.0 + 0.5 / rounds) >= seconds


@dataclass(frozen=True)
class Template:
    """One request of a round, with what its checks need to know."""

    label: str
    request: SolveRequest
    #: Identity of the answer: a repeat of the key must answer identically.
    key: str
    #: Label of the uncompressed request this answer must match.
    twin: str | None = None


@dataclass
class Sample:
    template: Template
    latency_s: float
    report: Any = None
    error: str | None = None
    codec_s: float = 0.0
    sent: float = 0.0
    #: Index of the sample's round within its run.
    round: int = 0
    #: A single caller's request: the same in every round.  Served
    #: samples have none; with two clients, which request queues behind
    #: which changes from pass to pass, and the median of a slot's two or
    #: three passes spread twice as much between runs as all samples'.
    slot: Any = None


@dataclass
class RunResult:
    samples: list[Sample]
    #: Wall time of each round of the run.
    round_s: list[float]
    #: Times of the reference task at each round boundary.
    reference_s: list[list[float]]
    #: Service counters of the run's server (``served-sweep`` only).
    service_stats: dict[str, Any] = field(default_factory=dict)
    #: Scale each round by the reference timed around it, not the whole
    #: run by the median reference.  A run of ``served-sweep`` has only
    #: two or three passes, and scaling each by its own boundaries
    #: doubled the spread of its latency between runs.
    scale_rounds: bool = True

    @property
    def answered(self) -> list[Sample]:
        return [sample for sample in self.samples if sample.report is not None]

    def round_slowdowns(self, scaled: bool = True) -> list[float]:
        """Per round, how much slower than nominal the machine ran: the
        mean of the median reference times just before and just after it
        (all 1 unless ``scaled``, all :attr:`slowdown` unless
        :attr:`scale_rounds`)."""
        if not scaled or not self.scale_rounds:
            return [self.slowdown if scaled else 1.0] * len(self.round_s)
        at = [statistics.median(times) / NOMINAL_S for times in self.reference_s]
        return [(before + after) / 2 for before, after in zip(at, at[1:])]

    def throughput_rps(self, scaled: bool = True) -> float:
        """Median over rounds of the requests answered per second, at
        nominal speed if ``scaled``."""
        answered = [0] * len(self.round_s)
        for sample in self.answered:
            answered[sample.round] += 1
        return statistics.median(
            count * slowdown / seconds
            for count, seconds, slowdown in zip(
                answered, self.round_s, self.round_slowdowns(scaled)
            )
        )

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each answered request's latency, or for a slot its median over
        the run's rounds, at nominal speed if ``scaled``."""
        slowdowns = self.round_slowdowns(scaled)
        by_slot: dict[Any, list[float]] = {}
        for index, sample in enumerate(self.answered):
            slot = index if sample.slot is None else sample.slot
            by_slot.setdefault(slot, []).append(
                sample.latency_s / slowdowns[sample.round]
            )
        return [statistics.median(values) for values in by_slot.values()]

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the machine ran during the run."""
        return statistics.median(
            seconds for times in self.reference_s for seconds in times
        ) / NOMINAL_S


# ----------------------------------------------------------------------
# single-caller workloads
# ----------------------------------------------------------------------
class SingleCaller:
    """One caller serving whole rounds back to back for about ``seconds``."""

    name = ""
    #: Reference timings at each round boundary.
    REFERENCE_REPEATS = 2

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.rounds: list[list[Template]] = []
        self._next = 0

    def setup(self) -> None:
        rounds = [self.make_round() for _ in range(_rounds_needed(self.seconds))]
        order = np.random.default_rng(self.seed).permutation(len(rounds[0]))
        self.rounds = [[templates[i] for i in order] for templates in rounds]
        self.warm_up()

    def make_round(self) -> list[Template]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def serve(self, request: SolveRequest) -> Any:
        raise NotImplementedError

    def run(self, seconds: float, recorder: Any = None) -> RunResult:
        """Serve whole rounds for about ``seconds``; a later run goes on
        with the rounds this one did not use."""
        samples: list[Sample] = []
        round_s: list[float] = []
        references: list[list[float]] = []
        _time_reference(references, self.REFERENCE_REPEATS)
        started = time.perf_counter()
        while True:
            round_started = time.perf_counter()
            for template in self.rounds[self._next % len(self.rounds)]:
                sent = time.perf_counter()
                try:
                    report, error = self.serve(template.request), None
                except Exception as failure:  # counted, never fatal
                    report, error = None, f"{type(failure).__name__}: {failure}"
                samples.append(Sample(
                    template, time.perf_counter() - sent, report, error,
                    sent=sent, round=len(round_s), slot=template.label,
                ))
            self._next += 1
            round_s.append(time.perf_counter() - round_started)
            _time_reference(references, self.REFERENCE_REPEATS)
            if _stop_after(time.perf_counter() - started, len(round_s), seconds):
                break
        return RunResult(samples, round_s, references)


def _template(label: str, request: SolveRequest, **kwargs: Any) -> Template:
    return Template(label, request, label, **kwargs)


class ExactDisjoint(SingleCaller):
    name = "exact-disjoint"

    def setup(self) -> None:
        # Every round shares these requests: each is served by a fresh
        # advisor, so nothing carries over between rounds.
        self.requests = self._requests()
        super().setup()

    def make_round(self) -> list[Template]:
        return self.requests

    @staticmethod
    def _requests() -> list[Template]:
        def disjoint_qp(instance: Any, compression: str = "off") -> SolveRequest:
            return SolveRequest(
                instance=instance, num_sites=NUM_SITES,
                allow_replication=False, strategy="qp",
                compression=compression,
            )

        duplicates = named_instance("rndDupAt8x400", seed=INSTANCE_SEED)
        return [
            _template(name, disjoint_qp(named_instance(name, seed=INSTANCE_SEED)))
            for name in ("rndAt16x100", "rndAt64x100", "rndBt64x100")
        ] + [
            _template("rndDupAt8x400/off", disjoint_qp(duplicates)),
            _template(
                "rndDupAt8x400/lossless",
                disjoint_qp(duplicates, compression="lossless"),
                twin="rndDupAt8x400/off",
            ),
        ]

    def warm_up(self) -> None:
        self.serve(SolveRequest(
            instance=named_instance("tpcc"), num_sites=2,
            allow_replication=False, strategy="qp",
        ))

    def serve(self, request: SolveRequest) -> Any:
        return Advisor().advise(request)


class AnnealPortfolio(SingleCaller):
    name = "anneal-portfolio"

    def setup(self) -> None:
        self.advisor = Advisor()
        deployed = Advisor().advise(SolveRequest(
            instance=named_instance("rndAt16x100", seed=INSTANCE_SEED),
            num_sites=3, strategy="greedy",
        ))
        self.layout = CurrentLayout.from_result(deployed.result)
        super().setup()

    def make_round(self) -> list[Template]:
        def request(name: str, strategy: str, **kwargs: Any) -> SolveRequest:
            return SolveRequest(
                instance=instances[name], num_sites=NUM_SITES,
                strategy=strategy, seed=INSTANCE_SEED, **kwargs,
            )

        instances = {
            name: named_instance(name, seed=INSTANCE_SEED)
            for name in ("rndAt16x100", "rndAt32x100", "rndAt64x100",
                         "rndDupAt8x400")
        }
        return [
            _template(f"sa-portfolio/{name}", request(name, "sa-portfolio"))
            for name in ("rndAt16x100", "rndAt64x100", "rndDupAt8x400")
        ] + [
            _template("sa-disjoint/rndAt64x100",
                      request("rndAt64x100", "sa", allow_replication=False)),
            _template("auto/rndAt32x100", request("rndAt32x100", "auto")),
            _template(
                "sa-portfolio-migrate/rndAt16x100",
                request("rndAt16x100", "sa-portfolio",
                        current_layout=self.layout, migration_cost=1.0),
            ),
        ]

    def warm_up(self) -> None:
        self.serve(SolveRequest(
            instance=named_instance("tpcc"), num_sites=2,
            strategy="sa-portfolio", seed=INSTANCE_SEED,
        ))

    def serve(self, request: SolveRequest) -> Any:
        return self.advisor.advise(request)


# ----------------------------------------------------------------------
# the served workload
# ----------------------------------------------------------------------
class ServedSweep:
    """Two clients in a closed loop against one served advisor."""

    name = "served-sweep"
    CLIENTS = 2
    #: Reference timings at each pass boundary: a run has only two or
    #: three passes.
    REFERENCE_REPEATS = 4

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        #: Per pass, each client's order of templates.
        self.passes: list[list[list[Template]]] = []
        self._next = 0

    def setup(self) -> None:
        instances = {"tpcc": named_instance("tpcc")} | {
            f"rndBt{tables}x15": named_instance(
                f"rndBt{tables}x15", seed=INSTANCE_SEED
            )
            for tables in (4, 8, 64)
        }
        seeds = np.random.default_rng(self.seed).integers(
            2**31, size=_rounds_needed(self.seconds)
        )
        self.passes = [
            self.orders(self.make_pass(instances, int(seed))) for seed in seeds
        ]
        server, clients = self._start()
        try:
            clients[0].advise(SolveRequest(
                instance=instances["tpcc"], num_sites=2, strategy="qp",
            ))
        finally:
            self._stop(server, clients)

    @staticmethod
    def make_pass(instances: dict[str, Any], seed: int) -> list[Template]:
        # The request seed makes each pass's requests distinct from earlier
        # passes' and seeds the portfolio of the chains.
        tpcc = instances["tpcc"]
        requests: list[tuple[str, SolveRequest]] = []
        for penalty in (2.0, 4.0, 8.0, 16.0):
            for lam in (0.1, 0.5, 1.0):
                for sites in (2, 3, 4):
                    requests.append((
                        f"qp/tpcc/p{penalty:g}/l{lam:g}/s{sites}",
                        SolveRequest(
                            instance=tpcc, num_sites=sites,
                            parameters=CostParameters(
                                network_penalty=penalty,
                                load_balance_lambda=lam,
                            ),
                            strategy="qp", seed=seed,
                        ),
                    ))
        for tables in (4, 8, 64):
            name = f"rndBt{tables}x15"
            requests.append((f"qp/{name}", SolveRequest(
                instance=instances[name], num_sites=NUM_SITES, strategy="qp",
                seed=seed,
            )))
        for sites in (2, 3, 4):
            requests.append((f"sa-portfolio->qp/tpcc/s{sites}", SolveRequest(
                instance=tpcc, num_sites=sites,
                strategy="sa-portfolio->qp", seed=seed,
            )))
        return [
            Template(label, request, request.canonical_key())
            for label, request in requests
        ]

    @staticmethod
    def orders(templates: list[Template]) -> list[list[Template]]:
        """Each client's order: every other template is sent by both
        clients, the rest are split between them.  Both walk the shared
        half in the same order, one own request after every two shared
        ones, the second client starting with its own, so repeats (a
        third of all requests) spread evenly through the pass."""
        shared, own = templates[0::2], templates[1::2]
        orders = []
        for own_first, mine in ((False, own[0::2]), (True, own[1::2])):
            order: list[Template] = []
            for step, start in enumerate(range(0, len(shared), 2)):
                pair, extra = shared[start:start + 2], mine[step:step + 1]
                order += extra + pair if own_first else pair + extra
            order += mine[len(range(0, len(shared), 2)):]
            orders.append(order)
        return orders

    def _start(self) -> tuple[ServerThread, list[ServiceClient]]:
        server = ServerThread(advisor=Advisor()).start()
        clients: list[ServiceClient] = []
        try:
            for number in range(self.CLIENTS):
                clients.append(ServiceClient(
                    server.host, server.port, client=f"client-{number}",
                ))
        except BaseException:
            self._stop(server, clients)
            raise
        return server, clients

    @staticmethod
    def _stop(server: ServerThread, clients: list[ServiceClient]) -> None:
        for client in clients:
            client.close()
        server.stop()

    def run(self, seconds: float, recorder: Any = None) -> RunResult:
        """Serve whole passes for about ``seconds``; a later run goes on
        with the passes this one did not use."""
        server, clients = self._start()
        samples: list[Sample] = []
        lock = threading.Lock()
        failures: list[BaseException] = []
        round_s: list[float] = []
        references: list[list[float]] = []
        _time_reference(references, self.REFERENCE_REPEATS)
        started = time.perf_counter()
        pass_started = [started]
        finished = threading.Event()

        def end_pass() -> None:
            # Runs once per pass, when both clients have finished it.
            round_s.append(time.perf_counter() - pass_started[0])
            _time_reference(references, self.REFERENCE_REPEATS)
            pass_started[0] = time.perf_counter()
            if _stop_after(pass_started[0] - started, len(round_s), seconds):
                finished.set()

        barrier = threading.Barrier(self.CLIENTS, action=end_pass)
        first = self._next

        def loop(position: int, client: ServiceClient) -> None:
            index = first
            while not finished.is_set():
                run_round = index - first
                for template in self.passes[index % len(self.passes)][position]:
                    context = (recorder.client_request() if recorder
                               else nullcontext())
                    with context as measured:
                        sent = time.perf_counter()
                        try:
                            report, error = client.advise(template.request), None
                        except Exception as failure:  # counted, never fatal
                            report = None
                            error = f"{type(failure).__name__}: {failure}"
                        latency = time.perf_counter() - sent
                    with lock:
                        samples.append(Sample(
                            template, latency, report, error,
                            codec_s=measured.codec_s if recorder else 0.0,
                            sent=sent, round=run_round,
                        ))
                barrier.wait()
                index += 1

        def guarded(position: int, client: ServiceClient) -> None:
            try:
                loop(position, client)
            except BaseException as failure:
                with lock:
                    failures.append(failure)
                barrier.abort()  # the other client must not wait forever

        threads = [
            threading.Thread(target=guarded, args=(position, client),
                             name=f"bench-client-{position}")
            for position, client in enumerate(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = clients[0].stats()
        finally:
            self._stop(server, clients)
        if failures:
            raise failures[0]
        self._next = first + len(round_s)
        return RunResult(samples, round_s, references, stats,
                         scale_rounds=False)


WORKLOADS: dict[str, Callable[[int, float], Any]] = {
    ExactDisjoint.name: ExactDisjoint,
    AnnealPortfolio.name: AnnealPortfolio,
    ServedSweep.name: ServedSweep,
}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Checker:
    """Checks every answer; remembers first answers to compare repeats."""

    def __init__(self) -> None:
        self.first: dict[str, Any] = {}
        self._coefficients: dict[tuple, Any] = {}

    def coefficients(self, request: SolveRequest) -> Any:
        # Keyed by identity; the entry keeps the request (and so its
        # instance and layout) alive, so an id can never be reused.
        key = (id(request.instance), request.parameters,
               id(request.current_layout), request.num_sites)
        entry = self._coefficients.get(key)
        if entry is None:
            coefficients = build_coefficients(
                request.instance, request.parameters
            )
            if request.current_layout is not None:
                coefficients = attach_migration(
                    coefficients, request.current_layout,
                    request.migration_cost, request.num_sites,
                )
            entry = self._coefficients[key] = (request, coefficients)
        return entry[1]

    def check(self, samples: list[Sample]) -> list[str]:
        """One message per failed request (errors included)."""
        failures = []
        answers = {
            (s.round, s.template.label): s.report
            for s in samples if s.report is not None
        }
        for sample in samples:
            problem = sample.error or self._problem(sample, answers)
            if problem:
                failures.append(f"{sample.template.label}: {problem}")
        return failures

    def _problem(self, sample: Sample, answers: dict) -> str | None:
        template, report = sample.template, sample.report
        request = template.request
        coefficients = self.coefficients(request)
        if not check_solution_feasible(coefficients, report.x, report.y):
            return "infeasible answer"
        objective = SolutionEvaluator(coefficients).objective4(report.x, report.y)
        if not math.isclose(objective, report.objective, rel_tol=1e-9,
                            abs_tol=1e-9):
            return (f"reported objective {report.objective!r} but the "
                    f"answer evaluates to {objective!r}")
        if report.strategy.split("->")[-1] == "qp":
            gap = report.metadata.get("mip_gap")
            if gap is None or gap > PAPER_GAP:
                return f"exact solve ended with gap {gap!r}, not by proof"
        if template.twin is not None:
            twin = answers.get((sample.round, template.twin))
            bound = report.metadata.get("objective_error_bound")
            if twin is None or bound is None:
                return "no uncompressed twin answer to compare with"
            if abs(report.objective - twin.objective) > bound + 1e-9 * abs(
                twin.objective
            ):
                return (f"objective {report.objective!r} is not within "
                        f"{bound!r} of the uncompressed {twin.objective!r}")
        first = self.first.setdefault(template.key, report)
        if first is not report and not (
            first.objective == report.objective
            and np.array_equal(first.x, report.x)
            and np.array_equal(first.y, report.y)
        ):
            return "a repeat of the request answered differently"
        return None


def quality_ratio(samples: list[Sample]) -> float:
    """Mean objective (4) over single-site cost, over the first answer of
    every distinct request."""
    first: dict[str, Any] = {}
    for sample in samples:
        if sample.report is not None:
            first.setdefault(sample.template.key, sample.report)
    return float(np.mean([
        report.objective / report.result.coefficients.single_site_cost()
        for report in first.values()
    ]))
