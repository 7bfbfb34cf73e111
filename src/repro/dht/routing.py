"""K-bucket routing tables for the DHT overlay.

One :class:`RoutingTable` per node: up to :data:`ID_BITS` buckets of at
most ``k`` contacts each, bucket ``i`` covering peers whose XOR distance
from the owner has its highest bit at position ``i``.  Buckets keep
least-recently-seen order (Kademlia's LRU discipline): a re-observed
contact moves to the tail, a new contact joins the tail while there is
room, and a full bucket *rejects* the newcomer — long-lived contacts are
statistically the ones that stay reachable, so the table prefers them
until a lookup probe to a dead contact degrades and evicts it.

Everything here is pure data structure — no clock, no network — which
is what lets the property suite drive it with Hypothesis directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dht.idspace import ID_BITS, bucket_index

#: Kademlia's bucket capacity (``k``): contacts kept per distance band.
DEFAULT_K = 8


@dataclass(frozen=True)
class Contact:
    """One routing-table entry: a peer's node id and overlay key."""

    node_id: int
    key: int


class KBucket:
    """One distance band: ≤ ``k`` contacts in least-recently-seen order."""

    __slots__ = ("k", "_by_id")

    def __init__(self, k: int) -> None:
        self.k = k
        #: node id -> contact, oldest (least recently seen) first.  A dict
        #: keeps insertion order, so delete + re-insert *is* "move to the
        #: tail" and every operation on it is O(1), full bucket or not
        #: (``RoutingTable.update`` does the move inline).
        self._by_id: dict[int, Contact] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id

    def remove(self, node_id: int) -> bool:
        """Drop a contact (eviction after a degraded lookup probe)."""
        return self._by_id.pop(node_id, None) is not None


class RoutingTable:
    """One node's view of the overlay: lazily materialized k-buckets."""

    __slots__ = ("owner_id", "owner_key", "k", "buckets")

    def __init__(self, owner_id: int, owner_key: int, k: int = DEFAULT_K):
        self.owner_id = owner_id
        self.owner_key = owner_key
        self.k = k
        #: bucket index -> bucket, created on first use (160 potential
        #: bands, a handful populated at simulated network sizes).
        self.buckets: dict[int, KBucket] = {}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())

    def __contains__(self, node_id: int) -> bool:
        return any(node_id in bucket for bucket in self.buckets.values())

    def update(self, contact: Contact) -> Contact | None:
        """Fold an observed contact in; returns a probe candidate.

        Applies the LRU discipline.  When the target bucket is full the
        newcomer is dropped and the stale *head* is returned: the one
        contact a liveness check would probe.  The engine sends no such
        check; a dead contact leaves when a lookup probe to it degrades,
        making room for fresher peers on the next observation.
        """
        node_id = contact.node_id
        if node_id == self.owner_id:
            return None
        # idspace.bucket_index() inlined: this runs twice per routed
        # message.  Buckets are created on first use.
        index = (self.owner_key ^ contact.key).bit_length() - 1
        if index < 0:
            raise ValueError("a node does not bucket its own id")
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = KBucket(self.k)
        # The LRU move, inlined for the same reason: a known contact
        # re-enters at the tail, an unknown one joins while there is room,
        # and only a full band's rejection reads the head.
        by_id = bucket._by_id
        if node_id in by_id:
            del by_id[node_id]
        elif len(by_id) >= self.k:
            return next(iter(by_id.values()))
        by_id[node_id] = contact
        return None

    def remove(self, node_id: int) -> bool:
        """Evict a contact wherever it lives (post-probe-failure)."""
        return any(
            bucket.remove(node_id) for bucket in self.buckets.values()
        )

    def contacts(self) -> list[Contact]:
        """Every contact, in deterministic (bucket, recency) order."""
        buckets = self.buckets
        return [
            entry
            for index in sorted(buckets)
            for entry in buckets[index]._by_id.values()
        ]

    def closest(self, target: int, count: int | None = None) -> list[Contact]:
        """The ``count`` known contacts nearest ``target`` (XOR order)."""
        if count is None:
            count = self.k
        ordered = sorted(self.contacts(), key=lambda c: c.key ^ target)
        return ordered[:count]

    def check_invariants(self) -> None:
        """Structural invariants (the property suite calls this).

        Raises:
            AssertionError: on any violation — over-full bucket,
                misfiled contact, duplicate node id, or self-entry.
        """
        seen: set[int] = set()
        for index, bucket in self.buckets.items():
            assert len(bucket) <= self.k, (index, len(bucket))
            for node_id, entry in bucket._by_id.items():
                assert entry.node_id == node_id, (node_id, entry)
                assert entry.node_id != self.owner_id
                assert bucket_index(self.owner_key, entry.key) == index
                assert entry.node_id not in seen, entry.node_id
                seen.add(entry.node_id)


__all__ = [
    "Contact",
    "KBucket",
    "RoutingTable",
    "DEFAULT_K",
    "ID_BITS",
]
