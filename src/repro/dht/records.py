"""Provider records: the DHT's block-hash → holder-set mapping.

Each node near a block's overlay key keeps a :class:`ProviderStore`
entry mapping that key to the node ids known to hold the block's body,
each holder stamped with a virtual-time expiry.  Records decay rather
than being deleted: a read past a holder's expiry simply skips it, and
republication (driven from the anti-entropy sweep while the overlay is
enabled) refreshes live holders before they lapse.  Expiry on virtual
time means a crashed publisher's stale claims age out of the overlay
without any tombstone protocol.
"""

from __future__ import annotations

#: Default lifetime of one published holder entry, virtual seconds.
#: Generous relative to sweep cadences (~5 s) so a single missed
#: republish round never blanks a record.
DEFAULT_RECORD_TTL = 600.0


class ProviderStore:
    """One node's slice of the provider-record keyspace."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        #: overlay key -> {holder node id -> expires-at (virtual time)}.
        self.records: dict[int, dict[int, float]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def put(
        self, key: int, holders: tuple[int, ...], now: float, ttl: float
    ) -> None:
        """Merge a published holder set, refreshing their expiries."""
        record = self.records.setdefault(key, {})
        expires = now + ttl
        for holder in holders:
            record[holder] = max(record.get(holder, 0.0), expires)

    def get(self, key: int, now: float) -> tuple[int, ...]:
        """Unexpired holders for ``key``, sorted (empty = no record)."""
        record = self.records.get(key)
        if not record:
            return ()
        return tuple(
            sorted(h for h, expires in record.items() if expires > now)
        )

    def expire(self, now: float) -> int:
        """Drop lapsed holders (and emptied records); returns how many."""
        dropped = 0
        for key in list(self.records):
            record = self.records[key]
            for holder in [h for h, e in record.items() if e <= now]:
                del record[holder]
                dropped += 1
            if not record:
                del self.records[key]
        return dropped


__all__ = ["ProviderStore", "DEFAULT_RECORD_TTL"]
