"""Traffic accounting: how many messages and bytes of each kind.

The network calls into a :class:`TrafficLedger` on every delivery; metrics
and the communication-overhead experiments (E4, E17) read the totals and
the per-kind counts back out.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.message import Message, MessageKind


@dataclass
class TrafficLedger:
    """Mutable traffic counters updated on every message delivery."""

    total_messages: int = 0
    total_bytes: int = 0
    bytes_by_kind: defaultdict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    messages_by_kind: defaultdict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record(self, message: Message) -> None:
        """Account one delivered message."""
        kind = message.kind
        size = message.size_bytes
        self.total_messages += 1
        self.total_bytes += size
        self.bytes_by_kind[kind] += size
        self.messages_by_kind[kind] += 1

    def bytes_for_kinds(self, kinds: set[MessageKind]) -> int:
        """Total bytes across a subset of message kinds."""
        return sum(self.bytes_by_kind.get(kind, 0) for kind in kinds)
