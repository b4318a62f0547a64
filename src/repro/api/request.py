"""The uniform partitioning request served by :func:`repro.api.advise`.

A :class:`SolveRequest` captures everything a solve needs — instance,
number of sites, cost parameters, replication mode, strategy and its
options, seed and time budget — as one frozen value with an exact JSON
round-trip (:meth:`SolveRequest.to_json` / :meth:`SolveRequest.from_json`),
so requests can be queued, shipped to a service and replayed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Mapping

from repro.costmodel.config import (
    DEFAULT_LAMBDA,
    DEFAULT_NETWORK_PENALTY,
    CostParameters,
    WriteAccounting,
)
from repro.exceptions import OptionsError
from repro.model.compressed import COMPRESSION_TIERS
from repro.model.instance import ProblemInstance
from repro.model.serialize import instance_from_dict, instance_to_dict
from repro.partition.current_layout import CurrentLayout

#: Version stamp of the request JSON document.
REQUEST_FORMAT_VERSION = 1

#: Separator for chained strategies ("sa-portfolio->qp" runs the
#: portfolio first and warm-starts the QP from its incumbent).
CHAIN_SEPARATOR = "->"

#: Recognised values of :attr:`SolveRequest.compression` — ``"off"``
#: plus the tiers of :mod:`repro.reduction.compress`.
COMPRESSION_MODES = ("off", *COMPRESSION_TIERS)


@dataclass(frozen=True)
class SolveRequest:
    """One partitioning request, strategy-agnostic.

    Parameters
    ----------
    instance:
        The schema + workload to partition.
    num_sites:
        Number of sites ``|S| >= 1``.
    parameters:
        Cost-model parameters (default: the paper's ``p=8``, cost-dominant
        blending).
    allow_replication:
        ``False`` requests a disjoint partitioning (Table 5's variant);
        strategies map this to their own spelling (QP's ``==1`` placement
        row, SA's ``disjoint`` option).
    strategy:
        A registry name (``"qp"``, ``"sa"``, ``"sa-portfolio"``,
        ``"greedy"``, ``"affinity"``, ``"hillclimb"``, ``"round-robin"``,
        ``"auto"``, or a user-registered name), or a ``"->"`` chain such
        as ``"sa-portfolio->qp"`` where each stage warm-starts the next.
    options:
        Per-strategy options (JSON-compatible values only). For ``"sa"``
        / ``"sa-portfolio"`` these mirror
        :class:`~repro.sa.options.SaOptions` fields (including the
        portfolio's execution ``backend``); for ``"qp"`` they are ``gap``, ``latency``,
        ``symmetry_breaking`` and ``time_limit``; ``"auto"``
        additionally honours ``auto_cutoff``.
    seed:
        Master seed; fills the strategy's own seed option when that is
        not pinned in ``options``.
    time_limit:
        Wall-clock budget in seconds (QP solve limit, SA portfolio
        budget).  For a chained strategy one budget spans all stages:
        each stage receives only what is left of it.
    compression:
        Workload compression applied before solving: ``"off"`` (the
        default), ``"lossless"`` (merge bit-identical transaction
        signatures; the returned objective is provably unchanged under
        pure cost minimisation) or ``"lossy"`` (also merge
        near-duplicates within ``compression_tolerance``).  The solve
        runs on the compressed view; the report's partitioning and
        objective are lifted back and re-evaluated on the original
        instance.
    compression_tolerance:
        Lossy-tier budget, relative to the instance's single-site cost
        (ignored unless ``compression == "lossy"``).
    current_layout:
        The incumbent :class:`~repro.partition.current_layout.CurrentLayout`
        already deployed (or its plain-dict form), or ``None`` for the
        paper's from-scratch problem.  With a layout set, the objective
        gains the one-time ``migration_cost``-weighted move term for
        every replica the new solution creates that the incumbent lacks,
        and SA strategies warm-start from the incumbent.  The layout's
        attributes must match the instance; it may span *fewer* sites
        than ``num_sites`` (the cluster grew), never more.
    migration_cost:
        Per-byte weight of moving attribute data to a new replica
        (``>= 0``; requires ``current_layout``).  ``0`` makes migration
        free: the layout then only seeds the SA warm start.
    """

    instance: ProblemInstance
    num_sites: int
    parameters: CostParameters = field(default_factory=CostParameters)
    allow_replication: bool = True
    strategy: str = "auto"
    options: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    time_limit: float | None = None
    compression: str = "off"
    compression_tolerance: float = 0.0
    current_layout: CurrentLayout | None = None
    migration_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise OptionsError(f"need at least one site, got {self.num_sites}")
        if self.compression not in COMPRESSION_MODES:
            raise OptionsError(
                f"unknown compression mode {self.compression!r}; "
                f"known: {', '.join(COMPRESSION_MODES)}"
            )
        if self.compression_tolerance < 0:
            raise OptionsError(
                f"compression_tolerance must be >= 0, got "
                f"{self.compression_tolerance}"
            )
        if not isinstance(self.strategy, str) or not self.strategy.strip():
            raise OptionsError(f"strategy must be a non-empty string, got "
                               f"{self.strategy!r}")
        for stage in self.stages:
            if not stage:
                raise OptionsError(
                    f"empty stage in chained strategy {self.strategy!r}"
                )
        if self.time_limit is not None and self.time_limit < 0:
            raise OptionsError(
                f"time_limit must be >= 0 seconds, got {self.time_limit}"
            )
        if self.migration_cost < 0:
            raise OptionsError(
                f"migration_cost must be >= 0, got {self.migration_cost}"
            )
        if self.current_layout is None:
            if self.migration_cost != 0.0:
                raise OptionsError(
                    "migration_cost without current_layout is meaningless: "
                    "set the incumbent layout the cost is measured against"
                )
        else:
            layout = self.current_layout
            if isinstance(layout, Mapping):
                layout = CurrentLayout.from_dict(layout)
                object.__setattr__(self, "current_layout", layout)
            elif not isinstance(layout, CurrentLayout):
                raise OptionsError(
                    f"current_layout must be a CurrentLayout (or its dict "
                    f"form) or None, got {type(layout).__name__}"
                )
            expected = {a.qualified_name for a in self.instance.attributes}
            if expected != set(layout.placements):
                missing = sorted(expected - set(layout.placements))[:3]
                extra = sorted(set(layout.placements) - expected)[:3]
                raise OptionsError(
                    f"current_layout attributes do not match the instance "
                    f"(missing e.g. {missing}, unknown e.g. {extra})"
                )
            if layout.num_sites > self.num_sites:
                raise OptionsError(
                    f"current_layout spans {layout.num_sites} sites but "
                    f"the request asks for {self.num_sites}"
                )
        # Freeze the options mapping so the request is a true value.
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))

    @property
    def stages(self) -> tuple[str, ...]:
        """The strategy chain, outermost first (length 1 when unchained)."""
        return tuple(part.strip() for part in self.strategy.split(CHAIN_SEPARATOR))

    def with_(self, **changes: Any) -> "SolveRequest":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def with_options(self, **extra: Any) -> "SolveRequest":
        """A copy with ``extra`` merged into :attr:`options`."""
        merged = dict(self.options)
        merged.update(extra)
        return replace(self, options=merged)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary (exact inverse of
        :meth:`from_dict`).

        The layout fields are emitted only when set: a layout-free
        request serialises exactly as it did before they existed, so
        canonical JSON (and with it the service's coalescing/cache
        keys) stays byte-stable for legacy payloads.
        """
        payload = {
            "format_version": REQUEST_FORMAT_VERSION,
            "instance": instance_to_dict(self.instance),
            "num_sites": self.num_sites,
            "parameters": {
                "network_penalty": self.parameters.network_penalty,
                "load_balance_lambda": self.parameters.load_balance_lambda,
                "write_accounting": self.parameters.write_accounting.value,
                "latency_penalty": self.parameters.latency_penalty,
            },
            "allow_replication": self.allow_replication,
            "strategy": self.strategy,
            "options": dict(self.options),
            "seed": self.seed,
            "time_limit": self.time_limit,
            "compression": self.compression,
            "compression_tolerance": self.compression_tolerance,
        }
        if self.current_layout is not None:
            payload["current_layout"] = self.current_layout.to_dict()
            payload["migration_cost"] = self.migration_cost
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveRequest":
        version = payload.get("format_version", REQUEST_FORMAT_VERSION)
        if version != REQUEST_FORMAT_VERSION:
            raise OptionsError(
                f"unsupported request format_version {version!r} "
                f"(this build reads version {REQUEST_FORMAT_VERSION})"
            )
        parameters = payload.get("parameters") or {}
        return cls(
            instance=instance_from_dict(payload["instance"]),
            num_sites=int(payload["num_sites"]),
            parameters=CostParameters(
                network_penalty=parameters.get(
                    "network_penalty", DEFAULT_NETWORK_PENALTY
                ),
                load_balance_lambda=parameters.get(
                    "load_balance_lambda", DEFAULT_LAMBDA
                ),
                write_accounting=WriteAccounting(
                    parameters.get("write_accounting", "all")
                ),
                latency_penalty=parameters.get("latency_penalty", 0.0),
            ),
            allow_replication=bool(payload.get("allow_replication", True)),
            strategy=payload.get("strategy", "auto"),
            options=dict(payload.get("options") or {}),
            seed=payload.get("seed"),
            time_limit=payload.get("time_limit"),
            compression=payload.get("compression", "off"),
            compression_tolerance=float(
                payload.get("compression_tolerance", 0.0)
            ),
            current_layout=(
                None
                if payload.get("current_layout") is None
                else CurrentLayout.from_dict(payload["current_layout"])
            ),
            migration_cost=float(payload.get("migration_cost", 0.0)),
        )

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise to a JSON string (options must be JSON values)."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SolveRequest":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Canonical form (the service's coalescing / result-cache key)
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """The canonical JSON spelling of this request.

        Sorted keys and compact separators make equal requests equal
        *strings* regardless of construction order — two requests with
        the same canonical JSON describe the same solve bit for bit
        (same instance, parameters, strategy, options, seed and
        budget).  This is what the advisor service coalesces and caches
        on.  Options must hold JSON-compatible values (already required
        by :meth:`to_json`).
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def canonical_key(self) -> str:
        """A compact digest of :meth:`canonical_json` (hex SHA-256).

        Collision-safe for use as a dictionary key: requests over large
        instances serialise to megabytes, and the service keeps one key
        per in-flight and per cached solve.
        """
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()
