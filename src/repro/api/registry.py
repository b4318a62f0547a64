"""Strategy registry: one lookup table from names to partitioners.

The paper treats the QP/MIP solver and simulated annealing as
interchangeable solvers of the same problem; the registry makes that
interchangeability concrete.  Every strategy — the built-ins and any
user-registered one — is a :class:`Partitioner`: a callable taking a
:class:`~repro.api.SolveRequest` plus a :class:`StrategyContext` and
returning a :class:`~repro.partition.PartitioningResult`.

>>> from repro.api import SolverRegistry
>>> registry = SolverRegistry()
>>> @registry.register("my-strategy")
... def my_strategy(request, context):
...     ...  # build and return a PartitioningResult
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import SolverError, UnknownStrategyError
from repro.partition.assignment import PartitioningResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.request import SolveRequest


@dataclass
class StrategyContext:
    """Shared serving state a strategy may use.

    ``coefficients`` are prebuilt by the advisor's per-instance
    :class:`~repro.costmodel.coefficients.CoefficientCache` (bitwise
    identical to an uncached build).  ``warm_start`` carries the
    previous stage's incumbent in a chained strategy (or a
    caller-provided one); strategies that cannot use it simply ignore
    it.
    """

    coefficients: CostCoefficients
    warm_start: PartitioningResult | None = None
    #: The serving advisor (when one is serving), for strategies that
    #: issue sub-requests — e.g. "qp-heavy" solves a restricted
    #: sub-instance through the same caches.
    advisor: object | None = None
    #: Resolution trace, e.g. the "auto" strategy records its pick here.
    notes: dict = field(default_factory=dict)


@runtime_checkable
class Partitioner(Protocol):
    """What a registered strategy must look like."""

    def __call__(
        self, request: "SolveRequest", context: StrategyContext
    ) -> PartitioningResult:
        ...  # pragma: no cover - protocol


class SolverRegistry:
    """Register/lookup partitioning strategies by name."""

    def __init__(self) -> None:
        self._strategies: dict[str, Partitioner] = {}

    def register(
        self,
        name: str,
        strategy: Partitioner | None = None,
        *,
        replace: bool = False,
    ) -> Callable[[Partitioner], Partitioner] | Partitioner:
        """Register ``strategy`` under ``name`` (usable as a decorator).

        Raises :class:`~repro.exceptions.SolverError` when ``name`` is
        already taken, unless ``replace=True``.
        """
        if not isinstance(name, str) or not name.strip():
            raise SolverError(f"strategy name must be a non-empty string, "
                              f"got {name!r}")

        def _register(callable_strategy: Partitioner) -> Partitioner:
            if not callable(callable_strategy):
                raise SolverError(
                    f"strategy {name!r} must be callable, got "
                    f"{type(callable_strategy).__name__}"
                )
            if not replace and name in self._strategies:
                raise SolverError(
                    f"strategy {name!r} is already registered; pass "
                    f"replace=True to override it"
                )
            self._strategies[name] = callable_strategy
            return callable_strategy

        if strategy is None:
            return _register
        return _register(strategy)

    def unregister(self, name: str) -> None:
        if name not in self._strategies:
            raise UnknownStrategyError(
                f"cannot unregister unknown strategy {name!r}"
            )
        del self._strategies[name]

    def get(self, name: str) -> Partitioner:
        try:
            return self._strategies[name]
        except KeyError:
            known = ", ".join(sorted(self._strategies))
            raise UnknownStrategyError(
                f"unknown strategy {name!r}; registered: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._strategies))

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def __len__(self) -> int:
        return len(self._strategies)

    def copy(self) -> "SolverRegistry":
        """An independent registry with the same strategies (handy for
        registering experiment-local strategies without touching the
        global default)."""
        duplicate = SolverRegistry()
        duplicate._strategies = dict(self._strategies)
        return duplicate


_default_registry: SolverRegistry | None = None


def default_registry() -> SolverRegistry:
    """The process-wide registry, with the built-ins pre-registered."""
    global _default_registry
    if _default_registry is None:
        from repro.api.strategies import register_builtin_strategies

        _default_registry = SolverRegistry()
        register_builtin_strategies(_default_registry)
    return _default_registry


def register_solver(
    name: str,
    strategy: Partitioner | None = None,
    *,
    replace: bool = False,
):
    """Register a strategy in the default registry (decorator-friendly)."""
    return default_registry().register(name, strategy, replace=replace)
