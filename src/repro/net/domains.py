"""Failure domains: zone blast-radius labels for every node.

Real deployments do not lose nodes independently — a power or network
event takes out a whole zone.  The paper's cluster-integrity argument
(and every placement policy in this repro) silently assumed
independence; this module supplies the missing vocabulary so placement,
repair, and fault injection can all reason about **correlated** loss.

:class:`FailureDomainMap` is the authoritative node → zone mapping; the
zone is the blast radius :meth:`~repro.sim.faults.FaultInjector.
crash_domain` kills at once.  A node's zone is a **pure function of its
id** (round-robin striping across zones), so a node that joins mid-run
gets the same zone on every machine and in every run regardless of call
order — the same determinism contract the placement policies keep.

The map carries a monotonically increasing :attr:`~FailureDomainMap.
version`; anything that memoizes on zones (the spread-aware placement
cache) keys on it, so membership syncs invalidate stale placements
without a cache flush protocol.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigurationError

__all__ = ["FailureDomainMap"]


class FailureDomainMap:
    """Deterministic node → zone assignment.

    Args:
        zones: number of failure domains (>= 1).

    Node ``i`` sits in zone ``i % zones`` — a pure function, so lazily
    resolved joiners land identically everywhere.
    """

    def __init__(self, zones: int) -> None:
        if zones < 1:
            raise ConfigurationError("a domain map needs at least 1 zone")
        self.zones = zones
        self._members: set[int] = set()
        self._version = 0

    # ------------------------------------------------------------- identity
    @property
    def version(self) -> int:
        """Monotonic change counter (placement caches key on it)."""
        return self._version

    def zone_of(self, node_id: int) -> int:
        """A node's zone: its derived stripe."""
        return node_id % self.zones

    # ------------------------------------------------------------ mutation
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
    def members_of_zone(
        self, zone: int, node_ids: Iterable[int] | None = None
    ) -> list[int]:
        """Sorted members of one zone (defaults to the synced set)."""
        pool = self._members if node_ids is None else node_ids
        return sorted(n for n in pool if self.zone_of(n) == zone)

    def zones_of(self, node_ids: Iterable[int]) -> set[int]:
        """The distinct zones a node set spans."""
        return {self.zone_of(n) for n in node_ids}
