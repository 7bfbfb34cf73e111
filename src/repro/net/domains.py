"""Failure domains: hierarchical blast-radius labels for every node.

Real deployments do not lose nodes independently — a switch failure
takes out a rack, a power event takes out a zone.  The paper's
cluster-integrity argument (and every placement policy in this repro)
silently assumed independence; this module supplies the missing
vocabulary so placement, repair, and fault injection can all reason
about **correlated** loss:

* :class:`DomainLabel` — one node's hierarchical ``(zone, rack)``
  position; the zone is the primary blast radius (what
  :meth:`~repro.sim.faults.FaultInjector.crash_domain` kills at once),
  the rack a secondary tier inside it.
* :class:`FailureDomainMap` — the authoritative node → label mapping.
  Labels derive from a **pure function of the node id** (round-robin
  striping across zones, then racks), so a node that joins mid-run gets
  the same label on every machine and in every run regardless of call
  order — the same determinism contract the placement policies keep.

The map carries a monotonically increasing :attr:`~FailureDomainMap.
version`; anything that memoizes on domain labels (the spread-aware
placement cache) keys on it, so membership syncs invalidate stale
placements without a cache flush protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError

__all__ = ["DomainLabel", "FailureDomainMap"]


@dataclass(frozen=True, order=True)
class DomainLabel:
    """One node's hierarchical failure-domain position."""

    zone: int
    rack: int = 0

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"z{self.zone}/r{self.rack}"


class FailureDomainMap:
    """Deterministic node → :class:`DomainLabel` assignment.

    Args:
        zones: number of top-level failure domains (>= 1).
        racks_per_zone: racks striped inside each zone (>= 1).

    The default label of node ``i`` is
    ``DomainLabel(i % zones, (i // zones) % racks_per_zone)`` — a pure
    function, so lazily resolved joiners land identically everywhere.
    """

    def __init__(self, zones: int = 2, racks_per_zone: int = 1) -> None:
        if zones < 1:
            raise ConfigurationError("a domain map needs at least 1 zone")
        if racks_per_zone < 1:
            raise ConfigurationError("racks_per_zone must be >= 1")
        self.zones = zones
        self.racks_per_zone = racks_per_zone
        self._members: set[int] = set()
        self._version = 0

    # ------------------------------------------------------------- identity
    @property
    def version(self) -> int:
        """Monotonic change counter (placement caches key on it)."""
        return self._version

    def domain_of(self, node_id: int) -> DomainLabel:
        """A node's label: its derived stripe."""
        return DomainLabel(
            zone=node_id % self.zones,
            rack=(node_id // self.zones) % self.racks_per_zone,
        )

    def zone_of(self, node_id: int) -> int:
        """Shorthand for ``domain_of(node_id).zone``."""
        return self.domain_of(node_id).zone

    # ------------------------------------------------------------ mutation
    def remove(self, node_id: int) -> None:
        """Forget a departed node."""
        if node_id in self._members:
            self._members.discard(node_id)
            self._version += 1

    def sync(self, node_ids: Iterable[int]) -> None:
        """Track the current population (called on membership changes).

        Joins resolve lazily through the deterministic stripe, so a sync
        only has to reconcile the member set; the version bumps when the
        population actually changed, invalidating spread-placement
        caches exactly when live-domain composition could have moved.
        """
        members = set(node_ids)
        if members == self._members:
            return
        self._members = members
        self._version += 1

    # ------------------------------------------------------------- queries
    @property
    def members(self) -> frozenset[int]:
        """The synced population (empty until the first :meth:`sync`)."""
        return frozenset(self._members)

    def members_of_zone(
        self, zone: int, node_ids: Iterable[int] | None = None
    ) -> list[int]:
        """Sorted members of one zone (defaults to the synced set)."""
        pool = self._members if node_ids is None else node_ids
        return sorted(n for n in pool if self.domain_of(n).zone == zone)

    def zones_of(self, node_ids: Iterable[int]) -> set[int]:
        """The distinct zones a node set spans."""
        return {self.domain_of(n).zone for n in node_ids}
