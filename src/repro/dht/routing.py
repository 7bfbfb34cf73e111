"""K-bucket routing tables for the DHT overlay.

One :class:`RoutingTable` per node: up to :data:`ID_BITS` buckets of at
most ``k`` contacts each, bucket ``i`` covering peers whose XOR distance
from the owner has its highest bit at position ``i``.  Buckets keep
least-recently-seen order (Kademlia's LRU discipline): a re-observed
contact moves to the tail, a new contact joins the tail while there is
room, and a full bucket *rejects* the newcomer — long-lived contacts are
statistically the ones that stay reachable, so the table prefers them
until an explicit liveness probe (PING) evicts a dead head.

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
        #: tail" and every operation below is O(1), full bucket or not.
        self._by_id: dict[int, Contact] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id

    @property
    def entries(self) -> list[Contact]:
        """The contacts, oldest (least recently seen) first, newest last."""
        return list(self._by_id.values())

    @property
    def full(self) -> bool:
        """No room for a new contact."""
        return len(self._by_id) >= self.k

    @property
    def head(self) -> Contact | None:
        """The least-recently-seen contact (eviction candidate)."""
        return next(iter(self._by_id.values()), None)

    def touch(self, contact: Contact) -> bool:
        """Record an observation of ``contact``.

        Known contacts move to the most-recently-seen tail; unknown ones
        append while there is room.  Returns ``False`` when the bucket is
        full and the contact unknown — the caller decides whether to
        probe-and-evict the head or drop the newcomer.
        """
        by_id = self._by_id
        node_id = contact.node_id
        if node_id in by_id:
            del by_id[node_id]
        elif len(by_id) >= self.k:
            return False
        by_id[node_id] = contact
        return True

    def remove(self, node_id: int) -> bool:
        """Drop a contact (eviction after a failed liveness probe)."""
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
        newcomer is dropped and the stale *head* is returned so the
        engine can PING it — a dead head is evicted on probe failure,
        making room for fresher peers on the next observation.
        """
        if contact.node_id == self.owner_id:
            return None
        # idspace.bucket_index() inlined: this runs twice per routed
        # message.  Buckets are created on first use.
        index = (self.owner_key ^ contact.key).bit_length() - 1
        if index < 0:
            raise ValueError("a node does not bucket its own id")
        bucket = self.buckets.get(index)
        if bucket is None:
            bucket = self.buckets[index] = KBucket(self.k)
        if bucket.touch(contact):
            return None
        return bucket.head

    def remove(self, node_id: int) -> bool:
        """Evict a contact wherever it lives (post-probe-failure)."""
        return any(
            bucket.remove(node_id) for bucket in self.buckets.values()
        )

    def contacts(self) -> list[Contact]:
        """Every contact, in deterministic (bucket, recency) order."""
        return [
            entry
            for index in sorted(self.buckets)
            for entry in self.buckets[index].entries
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
