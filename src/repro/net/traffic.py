"""Traffic accounting: who sent how many bytes of what.

The network calls into a :class:`TrafficLedger` on every delivery; metrics
and the communication-overhead experiments (E4) read aggregate views back
out.  Counters can be snapshotted and diffed so a single simulation can
measure several phases independently.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.message import Message, MessageKind


@dataclass
class TrafficSnapshot:
    """An immutable copy of the counters at a point in time."""

    total_messages: int
    total_bytes: int
    bytes_by_kind: dict[MessageKind, int]
    bytes_sent_by_node: dict[int, int]
    bytes_received_by_node: dict[int, int]

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        """Counters accumulated since ``earlier``."""
        return TrafficSnapshot(
            total_messages=self.total_messages - earlier.total_messages,
            total_bytes=self.total_bytes - earlier.total_bytes,
            bytes_by_kind={
                kind: count - earlier.bytes_by_kind.get(kind, 0)
                for kind, count in self.bytes_by_kind.items()
                if count - earlier.bytes_by_kind.get(kind, 0)
            },
            bytes_sent_by_node={
                node: count - earlier.bytes_sent_by_node.get(node, 0)
                for node, count in self.bytes_sent_by_node.items()
                if count - earlier.bytes_sent_by_node.get(node, 0)
            },
            bytes_received_by_node={
                node: count - earlier.bytes_received_by_node.get(node, 0)
                for node, count in self.bytes_received_by_node.items()
                if count - earlier.bytes_received_by_node.get(node, 0)
            },
        )


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
    bytes_sent_by_node: defaultdict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bytes_received_by_node: defaultdict[int, int] = field(
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
        self.bytes_sent_by_node[message.sender] += size
        self.bytes_received_by_node[message.recipient] += size

    def snapshot(self) -> TrafficSnapshot:
        """Freeze the current counters."""
        return TrafficSnapshot(
            total_messages=self.total_messages,
            total_bytes=self.total_bytes,
            bytes_by_kind=dict(self.bytes_by_kind),
            bytes_sent_by_node=dict(self.bytes_sent_by_node),
            bytes_received_by_node=dict(self.bytes_received_by_node),
        )

    def bytes_for_kinds(self, kinds: set[MessageKind]) -> int:
        """Total bytes across a subset of message kinds."""
        return sum(self.bytes_by_kind.get(kind, 0) for kind in kinds)
