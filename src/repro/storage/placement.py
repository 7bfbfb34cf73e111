"""In-cluster block placement policies.

Given a block and a cluster's member list, a placement policy decides which
``r`` members hold the full body (``r`` = replication factor).  The policy
is the heart of ICIStrategy's storage saving: a cluster of ``m`` nodes with
replication ``r`` stores each body ``r`` times instead of ``m`` times.

All policies are **deterministic functions of public data** (the block hash
or height plus the member list), so any node can compute who holds a block
without a directory service — the property the intra-cluster retrieval
protocol relies on.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.chain.block import BlockHeader
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.domains import FailureDomainMap


class PlacementPolicy(ABC):
    """Base class: choose a block's holders within a cluster."""

    @abstractmethod
    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """The ``replication`` member ids that must store the block body.

        Determinism contract: equal inputs yield equal outputs across
        processes and runs.

        Raises:
            PlacementError: when the cluster is too small or inputs are
                inconsistent.
        """

    def reassignments(
        self,
        headers: Iterable[BlockHeader],
        old_members: Sequence[int],
        new_members: Sequence[int],
        replication: int,
    ) -> Iterable[tuple[BlockHeader, tuple[int, ...], tuple[int, ...]]]:
        """``(header, old_holders, new_holders)`` per block that moves.

        The one traversal behind join, prune and departure planning: in
        header order, exactly the blocks whose holder *set* differs
        between the two memberships, with both tuples as :meth:`holders`
        returns them.
        """
        for header in headers:
            old_holders = self.holders(header, old_members, replication)
            new_holders = self.holders(header, new_members, replication)
            if set(old_holders) != set(new_holders):
                yield header, old_holders, new_holders

    @staticmethod
    def _check(members: Sequence[int], replication: int) -> list[int]:
        if replication < 1:
            raise PlacementError("replication factor must be >= 1")
        if not members:
            raise PlacementError("cannot place into an empty cluster")
        if replication > len(members):
            raise PlacementError(
                f"replication {replication} exceeds cluster size "
                f"{len(members)}"
            )
        # Canonical ordering: policies must not depend on caller ordering.
        return sorted(members)


class _HrwPlacement(PlacementPolicy):
    """Rendezvous ranking and its memo, shared by the HRW policies.

    A member's score for a block, ``(sha256(hash ‖ member)[:8], member)``
    packed into one int, does not depend on who else is in the cluster,
    so scores live in per-block *rows* that every membership of every
    cluster reuses: a surviving member is never re-hashed.  Results are
    memoized one group per membership key, so a membership that churn
    left behind is one dead dict rather than a key tuple per block.
    """

    #: Soft cap on memoized values (scores + placements); rows and groups
    #: reset together when exceeded so long churn simulations cannot grow
    #: them without bound.
    _CACHE_LIMIT = 200_000

    def __init__(self) -> None:
        self._rows: dict[bytes, dict[int, int]] = {}
        self._groups: dict[tuple, dict[bytes, tuple[int, ...]]] = {}
        self._entries = 0

    def _ranked(self, block_hash: bytes, members: Sequence[int]) -> list[int]:
        """``members`` by descending score, hashing only unseen ones."""
        row = self._rows.get(block_hash)
        if row is None:
            row = self._rows[block_hash] = {}
        unseen = [member for member in members if member not in row]
        for member in unseen:
            row[member] = _score(block_hash, member)
        self._entries += len(unseen)
        return sorted(members, key=row.__getitem__, reverse=True)

    def _group(self, key: tuple) -> dict[bytes, tuple[int, ...]]:
        """The memo group of one membership key, after the limit check.

        Fetched before ranking, never after, so a reset cannot strand a
        memoized placement without the score row of its holders.
        """
        if self._entries >= self._CACHE_LIMIT:
            self._rows.clear()
            self._groups.clear()
            self._entries = 0
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {}
        return group


class RendezvousPlacement(_HrwPlacement):
    """Highest-random-weight (rendezvous) hashing — the default policy.

    Each member gets a per-block score ``hash(block_hash || member)``; the
    top ``r`` scores hold the block.  Uniform in expectation, and —
    crucially for cheap bootstrapping — **membership-stable**: when a node
    joins a cluster of ``m``, only the expected ``r/(m+1)`` fraction of
    blocks change holders (exactly the blocks the joiner wins).
    """

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        # Every cluster member recomputes the same placement for the same
        # block (the protocol's directory-free property), so memoizing on
        # the full public input is a pure win: placements are deterministic
        # functions of (block hash, membership, replication).
        key = (tuple(members), replication)
        group = self._groups.get(key)
        if group is not None:
            cached = group.get(header.block_hash)
            if cached is not None:
                return cached
        canonical = self._check(members, replication)
        group = self._group(key)
        result = group[header.block_hash] = self._top(
            header.block_hash, canonical, replication
        )
        self._entries += 1
        return result

    def _top(
        self, block_hash: bytes, canonical: list[int], replication: int
    ) -> tuple[int, ...]:
        return tuple(sorted(self._ranked(block_hash, canonical)[:replication]))

    def reassignments(
        self,
        headers: Iterable[BlockHeader],
        old_members: Sequence[int],
        new_members: Sequence[int],
        replication: int,
    ) -> Iterable[tuple[BlockHeader, tuple[int, ...], tuple[int, ...]]]:
        """See :meth:`PlacementPolicy.reassignments`.

        The order on scores is the same in every membership, so when one
        member joins or leaves, a block's top ``r`` changes only if that
        member is — or outranks — a holder: a join costs one digest per
        block and a comparison with the lowest-ranked old holder, a leave
        re-ranks (from the score row, no hashing) only the blocks the
        leaver held.  Every block's result seeds the new membership's
        memo group.  Any other delta takes the generic diff.
        """
        old_key, new_key = tuple(old_members), tuple(new_members)
        old_set, new_set = set(old_key), set(new_key)
        delta = old_set ^ new_set
        if (
            len(delta) != 1
            or len(old_set) != len(old_key)
            or len(new_set) != len(new_key)
        ):
            return super().reassignments(
                headers, old_key, new_key, replication
            )
        (changed,) = delta
        joining = changed in new_set
        old_canonical = self._check(old_key, replication)
        new_canonical = self._check(new_key, replication)
        old_group = self._group((old_key, replication))
        new_group = self._group((new_key, replication))
        before = len(old_group) + len(new_group)
        scored = 0
        moved = []
        for header in headers:
            block_hash = header.block_hash
            old = old_group.get(block_hash)
            if old is None:
                old = old_group[block_hash] = self._top(
                    block_hash, old_canonical, replication
                )
            new = new_group.get(block_hash)
            if new is None:
                new = old
                if joining:
                    row = self._rows[block_hash]
                    if changed not in row:
                        row[changed] = _score(block_hash, changed)
                        scored += 1
                    lowest = min(old, key=row.__getitem__)
                    if row[changed] > row[lowest]:
                        new = tuple(
                            sorted(changed if m == lowest else m for m in old)
                        )
                elif changed in old:
                    new = self._top(block_hash, new_canonical, replication)
                new_group[block_hash] = new
            if new != old:
                moved.append((header, old, new))
        self._entries += len(old_group) + len(new_group) - before + scored
        return moved


class DomainSpreadPlacement(_HrwPlacement):
    """Rendezvous ranking post-filtered for failure-domain diversity.

    Walks the same highest-random-weight ranking as
    :class:`RendezvousPlacement` (identical per-member scores, so the
    enabled and disabled policies are directly comparable), but picks
    greedily for blast-radius spread: first members in **distinct
    zones**, then members in repeat zones but distinct ``(zone, rack)``
    labels, and only then best-effort fill in rank order.  With at
    least ``r`` live zones the ``r`` replicas can never share a zone —
    the property that keeps one ``DomainOutageEvent`` (``sim/faults.py``)
    from erasing a block.

    When a cluster spans fewer domains than copies the fallback is
    **audited, not silent**: every computed placement that could not
    reach full zone spread increments :attr:`domain_spread_deficit`
    (chaos/endurance outcomes surface it), so an operator sees exactly
    how many placements are running with a correlated blast radius.

    Memoization keys include the domain map's version counter: a
    re-assignment or membership sync invalidates stale spreads without
    flushing unrelated entries.  The greedy pick is not a top-``r`` of a
    membership-independent order (one joiner can change which zones count
    as used), so :meth:`reassignments` stays the generic diff.
    """

    def __init__(self, domains: "FailureDomainMap") -> None:
        super().__init__()
        self._domains = domains
        #: Placements (distinct block/membership/version inputs) that
        #: could not put every replica in its own zone.
        self.domain_spread_deficit = 0

    @property
    def domains(self) -> "FailureDomainMap":
        """The map this policy spreads against."""
        return self._domains

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        key = (tuple(members), replication, self._domains.version)
        group = self._groups.get(key)
        if group is not None:
            cached = group.get(header.block_hash)
            if cached is not None:
                return cached
        canonical = self._check(members, replication)
        group = self._group(key)
        ranked = self._ranked(header.block_hash, canonical)
        chosen: list[int] = []
        used_zones: set[int] = set()
        used_labels: set = set()
        # Pass 1: the top-ranked member of each so-far-unused zone.
        for member in ranked:
            if len(chosen) == replication:
                break
            label = self._domains.domain_of(member)
            if label.zone not in used_zones:
                chosen.append(member)
                used_zones.add(label.zone)
                used_labels.add(label)
        # Pass 2: zones must repeat, but racks inside them need not.
        if len(chosen) < replication:
            for member in ranked:
                if len(chosen) == replication:
                    break
                if member in chosen:
                    continue
                label = self._domains.domain_of(member)
                if label not in used_labels:
                    chosen.append(member)
                    used_labels.add(label)
        # Pass 3: best-effort fill in rank order (clusters smaller than
        # their domain vocabulary can express).
        if len(chosen) < replication:
            for member in ranked:
                if len(chosen) == replication:
                    break
                if member not in chosen:
                    chosen.append(member)
        if len({self._domains.zone_of(m) for m in chosen}) < len(chosen):
            self.domain_spread_deficit += 1
        result = group[header.block_hash] = tuple(sorted(chosen))
        self._entries += 1
        return result


class ModuloSlotPlacement(PlacementPolicy):
    """Map ``block_hash mod m`` to a starting member, take ``r`` in a row.

    Uniform in expectation over block hashes, but a membership change of
    any kind remaps nearly every block — the E9 ablation quantifies the
    migration cost this causes versus :class:`RendezvousPlacement`.
    """

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        canonical = self._check(members, replication)
        start = int.from_bytes(header.block_hash[:8], "big") % len(canonical)
        return tuple(
            canonical[(start + offset) % len(canonical)]
            for offset in range(replication)
        )


class RoundRobinPlacement(PlacementPolicy):
    """Height-based rotation: block ``h`` goes to member ``h mod m``.

    Perfectly balanced when blocks arrive at every height, but placement
    shifts wholesale when membership changes (the ablation's point).
    """

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        canonical = self._check(members, replication)
        start = header.height % len(canonical)
        return tuple(
            canonical[(start + offset) % len(canonical)]
            for offset in range(replication)
        )


class CapacityWeightedPlacement(PlacementPolicy):
    """Weight members by storage capacity via rendezvous (HRW) hashing.

    Each member gets a deterministic per-block score scaled by its
    capacity; the top ``r`` scores hold the block.  Members with twice the
    capacity receive roughly twice the blocks, and membership changes move
    only the affected blocks (consistent-hashing property).
    """

    def __init__(self, capacities: dict[int, float]) -> None:
        for node, capacity in capacities.items():
            if capacity <= 0:
                raise PlacementError(
                    f"capacity of node {node} must be positive"
                )
        self._capacities = dict(capacities)

    def capacity_of(self, node_id: int) -> float:
        """A member's configured capacity (default 1.0)."""
        return self._capacities.get(node_id, 1.0)

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        canonical = self._check(members, replication)
        block_hash = header.block_hash
        scored: list[tuple[float, int]] = []
        for member in canonical:
            digest = _score(block_hash, member) >> 64
            # Map digest to (0, 1), then weight per HRW-with-weights:
            # score = -capacity / ln(u); larger is better.
            uniform = (digest + 1) / float(2**64 + 1)
            score = -self.capacity_of(member) / math.log(uniform)
            scored.append((score, member))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return tuple(member for _, member in scored[:replication])


def _score(block_hash: bytes, member: int) -> int:
    """A member's HRW rank for a block: ``(digest, member)`` as one int.

    The digest is the first 8 bytes of ``sha256(block_hash ‖ member)``;
    packed above the member id, int order equals the order on
    ``(digest bytes, member)`` pairs.
    """
    digest = _sha256(block_hash + member.to_bytes(8, "big")).digest()[:8]
    return int.from_bytes(digest, "big") << 64 | member


_sha256 = hashlib.sha256


def placement_load(
    headers: Sequence[BlockHeader],
    members: Sequence[int],
    replication: int,
    policy: PlacementPolicy,
) -> dict[int, int]:
    """Blocks-per-member histogram for a header sequence under a policy.

    Used by the E9 ablation to compare balance across policies.
    """
    load = {member: 0 for member in members}
    for header in headers:
        for holder in policy.holders(header, members, replication):
            load[holder] += 1
    return load


def load_imbalance(load: dict[int, int]) -> float:
    """Max/mean ratio of a load histogram (1.0 = perfectly balanced)."""
    if not load:
        raise PlacementError("empty load histogram")
    values = list(load.values())
    mean = sum(values) / len(values)
    if mean == 0:
        return 1.0
    return max(values) / mean
