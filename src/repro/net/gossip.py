"""Gossip dissemination over the peer topology.

Implements announce/request/deliver flooding the way Bitcoin relays blocks:
a node that learns a new item announces its id to all peers; a peer missing
the item requests it from the first announcer; received items are
re-announced.  The helper is protocol-agnostic — block relay, transaction
relay, and header relay all instantiate it with different message kinds.

For analytical experiments that don't need per-hop simulation, the module
also provides closed-form traffic estimates (:func:`flood_cost_bytes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, TypeVar

from repro.net.message import Message, MessageKind, sized_message
from repro.net.network import Network

#: The item family a protocol instance relays (headers, txs, blocks).
T = TypeVar("T")

#: Bytes of an announcement (item id + height hint).
ANNOUNCE_PAYLOAD_BYTES = 36
#: Bytes of a request (item id).
REQUEST_PAYLOAD_BYTES = 32


@dataclass
class GossipStats:
    """Per-protocol gossip counters."""

    announces_sent: int = 0
    requests_sent: int = 0
    items_sent: int = 0
    duplicate_announces: int = 0


class GossipProtocol(Generic[T]):
    """Flooding relay for one item family (blocks, txs, headers).

    The protocol object is shared by all nodes of a scenario; per-node state
    (what each node has, whom it already announced to) lives in internal
    maps keyed by node id.  Nodes call :meth:`publish` when they originate
    or finish validating an item; the protocol handles announce/request
    traffic and invokes ``on_item(node_id, item)`` when a node receives the
    full item.

    The three message kinds are public so a
    :class:`~repro.protocols.router.MessageRouter` can claim them at
    engine-install time and dispatch gossip traffic like any other kind.
    """

    def __init__(
        self,
        network: Network,
        announce_kind: MessageKind,
        request_kind: MessageKind,
        item_kind: MessageKind,
        item_size: Callable[[T], int],
        on_item: Callable[[int, T], None],
    ) -> None:
        self._network = network
        self.announce_kind = announce_kind
        self.request_kind = request_kind
        self.item_kind = item_kind
        self._item_size = item_size
        self._on_item = on_item
        self._have: dict[int, set[Hashable]] = {}
        self._items: dict[Hashable, T] = {}
        self._requested: dict[int, set[Hashable]] = {}
        self.stats = GossipStats()
        #: kind -> router-shaped ``(node, message)`` handler; the node is
        #: unused (per-node state is keyed by ``message.recipient``).
        self.handlers: dict[MessageKind, Callable[[object, Message], None]] = {
            announce_kind: self._on_announce,
            request_kind: self._on_request,
            item_kind: self._on_item_received,
        }

    # ------------------------------------------------------------- seeding
    def node_has(self, node_id: int, item_id: Hashable) -> bool:
        """Does this node already have the item?"""
        have = self._have.get(node_id)
        return have is not None and item_id in have

    def holders_of(self, item_id: Hashable) -> list[int]:
        """Node ids currently holding the item."""
        return sorted(
            node for node, items in self._have.items() if item_id in items
        )

    def publish(self, node_id: int, item_id: Hashable, item: T) -> None:
        """Node ``node_id`` originates (or completes) ``item`` and relays it."""
        self._items[item_id] = item
        if self._mark_have(node_id, item_id):
            self._announce(node_id, item_id)

    # ------------------------------------------------------------ handlers
    def handle(self, message: Message) -> bool:
        """Dispatch a gossip message; returns ``False`` when not ours."""
        handler = self.handlers.get(message.kind)
        if handler is None:
            return False
        handler(None, message)
        return True

    def _mark_have(self, node_id: int, item_id: Hashable) -> bool:
        have = self._have.setdefault(node_id, set())
        if item_id in have:
            return False
        have.add(item_id)
        return True

    def _announce(self, node_id: int, item_id: Hashable) -> None:
        peers = self._network.peers_of(node_id)
        if not peers:
            return
        self.stats.announces_sent += len(peers)
        self._network.send_many(
            sized_message(
                self.announce_kind,
                node_id,
                peer,
                item_id,
                ANNOUNCE_PAYLOAD_BYTES,
            )
            for peer in peers
        )

    def _on_announce(self, _node, message: Message) -> None:
        node_id = message.recipient
        item_id = message.payload
        if self.node_has(node_id, item_id):
            self.stats.duplicate_announces += 1
            return
        requested = self._requested.setdefault(node_id, set())
        if item_id in requested:
            return
        requested.add(item_id)
        self.stats.requests_sent += 1
        self._network.send(
            sized_message(
                self.request_kind,
                node_id,
                message.sender,
                item_id,
                REQUEST_PAYLOAD_BYTES,
            )
        )

    def _on_request(self, _node, message: Message) -> None:
        node_id = message.recipient
        item_id = message.payload
        if not self.node_has(node_id, item_id):
            return  # we pruned or never had it; requester will retry elsewhere
        item = self._items[item_id]
        self.stats.items_sent += 1
        self._network.send(
            sized_message(
                self.item_kind,
                node_id,
                message.sender,
                (item_id, item),
                self._item_size(item),
            )
        )

    def _on_item_received(self, _node, message: Message) -> None:
        node_id = message.recipient
        item_id, item = message.payload
        self._requested.setdefault(node_id, set()).discard(item_id)
        if not self._mark_have(node_id, item_id):
            return
        self._items[item_id] = item
        self._on_item(node_id, item)
        self._announce(node_id, item_id)


def flood_cost_bytes(
    n_nodes: int, item_bytes: int, degree: int, envelope: int = 40
) -> int:
    """Closed-form traffic estimate for announce/request/deliver flooding.

    Every node announces to ``degree`` peers; each node requests and
    receives the item exactly once (n-1 transfers).  Used by analytical
    baselines to cross-check the simulator.
    """
    announces = n_nodes * degree * (ANNOUNCE_PAYLOAD_BYTES + envelope)
    requests = (n_nodes - 1) * (REQUEST_PAYLOAD_BYTES + envelope)
    transfers = (n_nodes - 1) * (item_bytes + envelope)
    return announces + requests + transfers
