"""Provider records: the DHT's block-hash → holder-set mapping.

Each node near a block's overlay key keeps a :class:`ProviderStore`
record for that key with one entry per publishing cluster: the
cluster's current read-plan holders, stamped with a virtual-time
expiry.  A STORE replaces its cluster's entry (other clusters' entries
are untouched), so a holder that shed or archived the block leaves the
record at the next publish rather than at its expiry; a lookup answers
with the asking cluster's entry alone.  Expiry still bounds what a
crashed publisher leaves behind: a read past an entry's expiry skips
it, a sweep drops it, and republication (driven from the anti-entropy
sweep while the overlay is enabled) refreshes a live entry at half its
lifetime, so no tombstone protocol is needed.
"""

from __future__ import annotations

#: Default lifetime of one published cluster entry, virtual seconds.
#: An unchanged entry is republished at half this age, so one missed
#: republish never blanks a record.
DEFAULT_RECORD_TTL = 600.0


class ProviderStore:
    """One node's slice of the provider-record keyspace."""

    __slots__ = ("records", "holders")

    def __init__(self) -> None:
        #: overlay key -> {publishing cluster id -> expires-at (virtual time)}.
        self.records: dict[int, dict[int, float]] = {}
        #: overlay key -> {publishing cluster id -> its holder ids, sorted}.
        self.holders: dict[int, dict[int, tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def put(
        self,
        key: int,
        cluster_id: int,
        holders: tuple[int, ...],
        now: float,
        ttl: float,
    ) -> None:
        """Replace ``cluster_id``'s entry; its expiry never moves back."""
        record = self.records.setdefault(key, {})
        record[cluster_id] = max(record.get(cluster_id, 0.0), now + ttl)
        self.holders.setdefault(key, {})[cluster_id] = tuple(sorted(holders))

    def get(
        self, key: int, now: float, cluster_id: int | None = None
    ) -> tuple[int, ...]:
        """Unexpired holders for ``key``, sorted (empty = no entry).

        ``cluster_id`` names the one entry a lookup answers with;
        ``None`` joins every unexpired cluster's holders.
        """
        record = self.records.get(key)
        if not record:
            return ()
        entries = self.holders[key]
        if cluster_id is not None:
            expires = record.get(cluster_id, 0.0)
            return entries[cluster_id] if expires > now else ()
        return tuple(
            sorted(
                {
                    holder
                    for cluster, expires in record.items()
                    if expires > now
                    for holder in entries[cluster]
                }
            )
        )

    def expire(self, now: float) -> int:
        """Drop lapsed cluster entries (and emptied records); returns
        how many entries went."""
        dropped = 0
        for key in list(self.records):
            record, entries = self.records[key], self.holders[key]
            for cluster in [c for c, e in record.items() if e <= now]:
                del record[cluster], entries[cluster]
                dropped += 1
            if not record:
                del self.records[key], self.holders[key]
        return dropped


__all__ = ["ProviderStore", "DEFAULT_RECORD_TTL"]
