"""The incumbent layout: which sites already hold which attributes.

Re-partitioning needs "what is deployed today" as an input, not just as
an output: the migration term of the objective charges every replica
the new layout creates that the incumbent does not already have, and SA
warm-starts from it. ``CurrentLayout`` is the frozen,
JSON-round-trippable carrier for that input, independent of any
in-memory :class:`~repro.partition.assignment.PartitioningResult` — a
layout deployed last week can be loaded from a file and weighed against
a re-solve on this week's statistics.

Placements are keyed by qualified attribute name (``"Table.attr"``) so
a layout survives attribute reordering; ``to_matrix`` rebuilds the
``(|A|, |S|)`` indicator against a concrete instance, zero-padding when
the target cluster has grown more sites than the layout knew about.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.exceptions import OptionsError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.instance import ProblemInstance
    from repro.partition.assignment import PartitioningResult

LAYOUT_FORMAT_VERSION = 1


def _normalize_sites(name: str, sites: Iterable[int], num_sites: int) -> tuple[int, ...]:
    normalized: list[int] = []
    for site in sites:
        index = int(site)
        if index != site:
            raise OptionsError(
                f"layout places {name!r} on non-integer site {site!r}"
            )
        if not 0 <= index < num_sites:
            raise OptionsError(
                f"layout places {name!r} on site {index}, outside "
                f"0..{num_sites - 1}"
            )
        normalized.append(index)
    if not normalized:
        raise OptionsError(
            f"layout leaves attribute {name!r} unplaced (every attribute "
            f"needs at least one replica)"
        )
    return tuple(sorted(set(normalized)))


@dataclass(frozen=True)
class CurrentLayout:
    """Incumbent attribute placement: qualified name -> replica sites.

    Frozen and hashable-by-identity only (placements are a mapping);
    validation happens at construction following the ``OptionsError``
    pattern of :class:`~repro.api.request.SolveRequest`.
    """

    num_sites: int
    placements: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise OptionsError(
                f"layout num_sites must be >= 1, got {self.num_sites}"
            )
        if not self.placements:
            raise OptionsError("layout has no attribute placements")
        normalized = {
            str(name): _normalize_sites(str(name), sites, self.num_sites)
            for name, sites in self.placements.items()
        }
        object.__setattr__(self, "placements", MappingProxyType(normalized))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_result(cls, result: "PartitioningResult") -> "CurrentLayout":
        """Freeze a solver result's ``y`` into a deployable layout."""
        instance = result.coefficients.instance
        placements = {
            attribute.qualified_name: tuple(
                int(site) for site in np.flatnonzero(result.y[index])
            )
            for index, attribute in enumerate(instance.attributes)
        }
        return cls(num_sites=result.num_sites, placements=placements)

    @classmethod
    def from_matrix(
        cls, instance: "ProblemInstance", y: np.ndarray
    ) -> "CurrentLayout":
        """Build a layout from an ``(|A|, |S|)`` replica indicator."""
        y = np.asarray(y)
        placements = {
            attribute.qualified_name: tuple(
                int(site) for site in np.flatnonzero(y[index])
            )
            for index, attribute in enumerate(instance.attributes)
        }
        return cls(num_sites=int(y.shape[1]), placements=placements)

    # -- conversion ---------------------------------------------------

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self.placements)

    def to_matrix(self, instance: "ProblemInstance", num_sites: int) -> np.ndarray:
        """Rebuild the ``(|A|, num_sites)`` float indicator.

        The layout may know fewer sites than the target (the cluster
        grew): extra columns stay empty. More sites than the target is
        an error — shrink scenarios need an explicit re-layout first.
        """
        if num_sites < self.num_sites:
            raise OptionsError(
                f"layout spans {self.num_sites} sites but the target has "
                f"only {num_sites}"
            )
        expected = {a.qualified_name for a in instance.attributes}
        if expected != set(self.placements):
            missing = sorted(expected - set(self.placements))[:3]
            extra = sorted(set(self.placements) - expected)[:3]
            raise OptionsError(
                f"layout attributes do not match instance "
                f"{instance.name!r} (missing e.g. {missing}, "
                f"unknown e.g. {extra})"
            )
        y = np.zeros((len(instance.attributes), num_sites))
        for index, attribute in enumerate(instance.attributes):
            y[index, list(self.placements[attribute.qualified_name])] = 1.0
        return y

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": LAYOUT_FORMAT_VERSION,
            "num_sites": self.num_sites,
            "placements": {
                name: list(sites) for name, sites in sorted(self.placements.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CurrentLayout":
        version = payload.get("format_version", LAYOUT_FORMAT_VERSION)
        if version != LAYOUT_FORMAT_VERSION:
            raise OptionsError(
                f"unsupported layout format_version {version!r} "
                f"(this build reads {LAYOUT_FORMAT_VERSION})"
            )
        try:
            num_sites = int(payload["num_sites"])
            placements = payload["placements"]
        except KeyError as missing:
            raise OptionsError(f"layout payload misses key {missing}") from None
        return cls(
            num_sites=num_sites,
            placements={
                str(name): tuple(int(s) for s in sites)
                for name, sites in placements.items()
            },
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CurrentLayout":
        return cls.from_dict(json.loads(text))

    # MappingProxyType does not pickle; round-trip through the plain
    # dict form so layouts pickle and copy.
    def __reduce__(self):
        return (CurrentLayout.from_dict, (self.to_dict(),))
