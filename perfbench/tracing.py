"""Per-layer spans recorded from outside the program.

:class:`Recorder` wraps the public entry point of each layer of the
``repro`` package — a class method, or a module-level function wherever a
``repro`` module has imported it — for the duration of a ``with`` block,
and restores the originals afterwards.  Nothing under ``src/`` changes.

Each wrapped call is a span.  A span's *self time* is its duration minus
the time of the spans it caused (its children on the same thread), so the
self times of all layers add up to the traced wall time without double
counting.  Spans nest per thread: the service solves on its worker
thread while the clients decode reports on theirs.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.api.advisor import Advisor
from repro.api.request import SolveRequest
from repro.costmodel.coefficients import CoefficientCache
from repro.costmodel.evaluator import SolutionEvaluator
from repro.costmodel.incremental import IncrementalEvaluator
from repro.sa.annealer import SimulatedAnnealer
from repro.sa.subsolve import SubproblemSolver
from repro.solver.model import MipModel

_INCREMENTAL_METHODS = (
    "reset", "objective4", "objective6", "site_loads", "max_load",
    "forced_y", "y_subproblem_inputs", "x_subproblem_inputs",
    "begin_trial", "commit", "rollback", "move_transactions",
    "set_replicas", "assign_x", "assign_y", "delta_move_transactions",
    "delta_toggle_replicas",
)
_EVALUATOR_METHODS = ("objective4", "objective6", "site_loads", "breakdown")


class Recorder:
    """Span totals, work counters and per-solve records of one traced run."""

    def __init__(self, keyed: bool = False) -> None:
        #: Record each top-level solve's canonical key (the service's
        #: queue-wait split needs it; hashing large requests is not free).
        self.keyed = keyed
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        #: ``(canonical_key, start, end)`` of every top-level advise.
        self.solves: list[tuple[str, float, float]] = []
        #: Top-level :class:`~repro.api.SolveReport` objects, in order.
        self.reports: list[Any] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable[..., Any],
        on_return: Callable[[tuple, Any, float], None] | None = None,
        client_only: bool = False,
    ) -> Callable[..., Any]:
        """``function`` recorded as a span called ``name``.

        ``on_return(args, result, seconds)`` runs after the span closes;
        ``client_only`` spans are recorded only inside :meth:`client_request`.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            in_codec = getattr(self._local, "codec", None) is not None
            if in_codec != client_only:
                # Codec spans exist only inside a client request; what the
                # codec calls (the client's coefficient rebuild) is codec.
                return function(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += elapsed - children
                if client_only:
                    self._local.codec += elapsed
            if on_return is not None:
                on_return(args, result, elapsed)
            return result

        return traced

    def client_request(self) -> "_ClientRequest":
        """Context for one client call: codec spans inside it are summed."""
        return _ClientRequest(self._local)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_method(self, cls: type, method: str, name: str, **kwargs: Any) -> None:
        self._patch(cls, method, self.wrap(name, getattr(cls, method), **kwargs))

    def _patch_function(self, module: str, function: str, name: str, **kwargs: Any) -> None:
        """Wrap ``module.function`` in every ``repro`` module that binds it."""
        original = getattr(sys.modules[module], function)
        traced = self.wrap(name, original, **kwargs)
        for module_name, loaded in list(sys.modules.items()):
            if module_name.startswith("repro") and loaded is not None:
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attribute, traced)

    def __enter__(self) -> "Recorder":
        import repro.api.strategies  # noqa: F401  (binds compress/lift)
        import repro.sa.solver  # noqa: F401  (binds run_portfolio)
        import repro.service.wire  # noqa: F401  (binds report_from_wire)
        import repro.solver.scipy_backend  # noqa: F401

        self._patch_method(Advisor, "advise", "api", on_return=self._on_advise)
        self._patch_method(CoefficientCache, "__init__", "coefficients")
        self._patch_method(CoefficientCache, "coefficients", "coefficients")
        self._patch_function(
            "repro.costmodel.coefficients", "build_coefficients",
            "coefficients", on_return=self._on_build_coefficients,
        )
        self._patch_function(
            "repro.reduction.compress", "compress_instance", "compress"
        )
        self._patch_function("repro.reduction.compress", "lift_result", "lift")
        self._patch_function(
            "repro.qp.linearize", "build_linearized_model", "linearize"
        )
        self._patch_method(
            MipModel, "to_standard_arrays", "mip.to_arrays",
            on_return=self._on_arrays,
        )
        self._patch_function(
            "repro.solver.scipy_backend", "solve_mip_scipy", "mip.highs"
        )
        self._patch_function(
            "repro.sa.portfolio", "run_portfolio", "portfolio",
            on_return=self._on_portfolio,
        )
        self._patch_method(
            SimulatedAnnealer, "run", "anneal", on_return=self._on_anneal
        )
        self._patch_method(
            SubproblemSolver, "optimize_y_greedy", "subsolve.y_greedy"
        )
        self._patch_method(
            SubproblemSolver, "optimize_x_greedy", "subsolve.x_greedy"
        )
        for method in _INCREMENTAL_METHODS:
            self._patch_method(IncrementalEvaluator, method, "incremental")
        for method in _EVALUATOR_METHODS:
            self._patch_method(SolutionEvaluator, method, "evaluator")
        self._patch_method(SolveRequest, "to_dict", "codec", client_only=True)
        self._patch_function(
            "repro.service.wire", "report_from_wire", "codec",
            client_only=True,
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # counters taken from return values
    # ------------------------------------------------------------------
    def _on_advise(self, args: tuple, report: Any, seconds: float) -> None:
        if self._stack():
            return  # a sub-request of compression; its parent reports
        ended = time.perf_counter()
        key = args[1].canonical_key() if self.keyed else ""
        with self._lock:
            self.reports.append(report)
            self.solves.append((key, ended - seconds, ended))
            self.counters["api.calls"] += 1
            self.counters["api.advise_s"] += seconds

    def _on_build_coefficients(self, args: tuple, result: Any, seconds: float) -> None:
        self.count("coefficients.direct_builds")

    def _on_arrays(self, args: tuple, arrays: Any, seconds: float) -> None:
        self.count("mip.nnz_total", arrays.matrix.nnz)

    def _on_portfolio(self, args: tuple, portfolio: Any, seconds: float) -> None:
        self.count("portfolio.restarts", len(portfolio.outcomes))
        self.count("portfolio.pruned", portfolio.pruned)

    def _on_anneal(self, args: tuple, result: Any, seconds: float) -> None:
        trace = args[0].trace
        self.count("anneal.iterations", trace.iterations)
        self.count("anneal.accepted", trace.accepted)
        self.count("anneal.outer_loops", trace.outer_loops)


class _ClientRequest:
    """Marks one client call; :attr:`codec_s` is its codec time."""

    def __init__(self, local: threading.local) -> None:
        self._local = local
        self.codec_s = 0.0

    def __enter__(self) -> "_ClientRequest":
        self._local.codec = 0.0
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.codec_s = self._local.codec
        self._local.codec = None
