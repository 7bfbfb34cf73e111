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
    memoized one group per membership key.  The memo holds what live
    memberships use: a membership change retires the group it replaced
    and a leaver's scores (:meth:`RendezvousPlacement.reassignments`),
    and a domain-map change retires the spreads of older versions
    (:class:`DomainSpreadPlacement`).  A retired entry only costs a
    recompute if it is asked for again.
    """

    #: Soft cap on memoized values (scores + placements); rows and groups
    #: reset together when exceeded.  The backstop for keys no membership
    #: change replaces (the archival tier's live subsets and candidates).
    _CACHE_LIMIT = 200_000

    def __init__(self) -> None:
        self._rows: dict[bytes, dict[int, int]] = {}
        self._groups: dict[tuple, dict[bytes, tuple[int, ...]]] = {}
        #: Group key -> the key the last traversal into it came from.
        self._before: dict[tuple, tuple] = {}
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
            self._before.clear()
            self._entries = 0
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {}
        return group

    def _drop_group(self, key: tuple) -> None:
        group = self._groups.pop(key, None)
        if group is not None:
            self._entries -= len(group)


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
        block and a comparison with the lowest-ranked old holder, both
        inline, and a leave touches only the blocks the leaver held,
        where its successor is the best-scored non-holder (from the
        score row, no hashing).  Every block's result seeds the new
        membership's memo group; the group before the old membership is
        retired (:meth:`_retire`) and a leaver's scores leave every row,
        so churn keeps the memo at the size of the live memberships.  Any
        other delta takes the generic diff and retires nothing.
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
        rows = self._rows
        changed_bytes = changed.to_bytes(8, "big")
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
                    row = rows[block_hash]
                    score = row.get(changed)
                    if score is None:
                        # _score, inlined: this runs once per block.
                        score = row[changed] = int.from_bytes(
                            _sha256(block_hash + changed_bytes).digest()[:8],
                            "big",
                        ) << 64 | changed
                        scored += 1
                    try:
                        lowest = min(map(row.__getitem__, old))
                    except KeyError:
                        # A kept group can name a member that has left
                        # since, and a leaver's scores go at once.
                        for member in old:
                            if member not in row:
                                row[member] = _score(block_hash, member)
                                scored += 1
                        lowest = min(map(row.__getitem__, old))
                    if score > lowest:
                        new = _swap(old, lowest & _MEMBER_MASK, changed)
                elif changed in old:
                    # The other holders outrank every non-holder, so the
                    # leaver's successor is the best-scored non-holder.
                    row = rows[block_hash]
                    best = 0
                    for member in new_canonical:
                        if member not in old:
                            score = row.get(member)
                            if score is None:
                                score = row[member] = _score(block_hash, member)
                                scored += 1
                            if score > best:
                                best = score
                    new = _swap(old, changed, best & _MEMBER_MASK)
                new_group[block_hash] = new
            if new != old:
                moved.append((header, old, new))
        self._entries += len(old_group) + len(new_group) - before + scored
        self._retire((old_key, replication), (new_key, replication))
        if not joining:
            dropped = 0
            for row in self._rows.values():
                if row.pop(changed, None) is not None:
                    dropped += 1
            self._entries -= dropped
        return moved

    def _retire(self, old_key: tuple, new_key: tuple) -> None:
        """Drop the groups the move ``old_key -> new_key`` replaced.

        ``old_key``'s own group stays (a join walks the same pair twice:
        to plan, and to prune once the joiner confirms); the group the
        traversal into ``old_key`` came from goes, and so does every
        older group on that chain.  Keys recur (a joiner can reuse a
        departed id), so neither end of this move is ever dropped.
        """
        stale = self._before.pop(old_key, None)
        self._before[new_key] = old_key
        while stale is not None and stale != old_key and stale != new_key:
            self._drop_group(stale)
            stale = self._before.pop(stale, None)


class DomainSpreadPlacement(_HrwPlacement):
    """Rendezvous ranking post-filtered for failure-domain diversity.

    Walks the same highest-random-weight ranking as
    :class:`RendezvousPlacement` (identical per-member scores, so the
    enabled and disabled policies are directly comparable), but picks
    greedily for blast-radius spread: first the top member of each
    **distinct zone**, then best-effort fill in rank order.  With at
    least ``r`` live zones the ``r`` replicas can never share a zone —
    the property that keeps one whole-zone outage
    (``FaultInjector.crash_domain`` in ``sim/faults.py``) from erasing a
    block.

    When a cluster spans fewer domains than copies the fallback is
    **audited, not silent**: every computed placement that could not
    reach full zone spread increments :attr:`domain_spread_deficit`
    (chaos/endurance outcomes surface it), so an operator sees exactly
    how many placements are running with a correlated blast radius.

    Memoization keys include the domain map's version counter, which
    only increases: the first placement at a new version drops every
    group of the older ones, which nothing can ask for again, and keeps
    the score rows.  The greedy pick is not a top-``r`` of a
    membership-independent order (one joiner can change which zones count
    as used), so :meth:`reassignments` stays the generic diff.
    """

    def __init__(self, domains: "FailureDomainMap") -> None:
        super().__init__()
        self._domains = domains
        self._version = domains.version
        #: Placements (distinct block/membership/version inputs) that
        #: could not put every replica in its own zone.
        self.domain_spread_deficit = 0

    def holders(
        self,
        header: BlockHeader,
        members: Sequence[int],
        replication: int,
    ) -> tuple[int, ...]:
        """See :meth:`PlacementPolicy.holders`."""
        version = self._domains.version
        key = (tuple(members), replication, version)
        group = self._groups.get(key)
        if group is not None:
            cached = group.get(header.block_hash)
            if cached is not None:
                return cached
        canonical = self._check(members, replication)
        if version != self._version:
            self._version = version
            for stale in list(self._groups):
                self._drop_group(stale)
        group = self._group(key)
        ranked = self._ranked(header.block_hash, canonical)
        chosen: list[int] = []
        used_zones: set[int] = set()
        zone_of = self._domains.zone_of
        # Pass 1: the top-ranked member of each so-far-unused zone.
        for member in ranked:
            if len(chosen) == replication:
                break
            zone = zone_of(member)
            if zone not in used_zones:
                chosen.append(member)
                used_zones.add(zone)
        # Pass 2: best-effort fill in rank order (clusters smaller than
        # their domain vocabulary can express).
        if len(chosen) < replication:
            for member in ranked:
                if len(chosen) == replication:
                    break
                if member not in chosen:
                    chosen.append(member)
        if len({zone_of(m) for m in chosen}) < len(chosen):
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

#: The member id packed into the low bits of a :func:`_score`.
_MEMBER_MASK = (1 << 64) - 1


def _swap(holders: tuple[int, ...], out: int, into: int) -> tuple[int, ...]:
    """Sorted ``holders`` with ``out`` replaced by ``into``."""
    swapped = list(holders)
    swapped[swapped.index(out)] = into
    swapped.sort()
    return tuple(swapped)


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
