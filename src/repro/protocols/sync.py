"""Sync engine: the wire of node bootstrap and membership-repair transfers.

Owns the ``SYNC_REQUEST`` / ``SYNC_HEADERS`` / ``SYNC_BODIES`` exchanges
shared by three flows: a new node joining (headers + its assigned
bodies), graceful departure, and crash repair.  It serves requests and
hands each reply to the session registered for its recipient; the join
itself (state machine, session, fault watch) lives in
:mod:`repro.core.bootstrap` and the shrinkage planner in
:mod:`repro.core.departure`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.chain.block import Block, HEADER_SIZE
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.router import MessageRouter, ProtocolEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bootstrap import BootstrapState

#: Callback signature of a generic SYNC_BODIES consumer (repair flows).
SyncSession = Callable[[ClusterNode, int, Sequence[Block]], None]


class SyncEngine(ProtocolEngine):
    """Join/leave/crash-repair synchronization traffic."""

    name = "sync"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        #: Joiner node id -> in-flight join session.
        self.bootstraps: dict[int, "BootstrapState"] = {}
        # Generic SYNC_BODIES consumers (departure repair, parity repair):
        # recipient node id -> callback(node, sender, blocks).
        self.sessions: dict[int, SyncSession] = {}

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.SYNC_REQUEST, self._on_sync_request, owner=self.name
        )
        router.register(
            MessageKind.SYNC_HEADERS, self._on_sync_headers, owner=self.name
        )
        router.register(
            MessageKind.SYNC_BODIES, self._on_sync_bodies, owner=self.name
        )

    # ------------------------------------------------------------ serving
    def _on_sync_request(self, node: BaseNode, message: Message) -> None:
        """A contact/holder answers a joiner's (or repairer's) request."""
        assert isinstance(node, ClusterNode)
        deployment = self.deployment
        tag = message.payload[0]
        if tag == "headers":
            headers = list(node.store.iter_active_headers())
            if deployment.config.transfer_state_snapshot:
                snapshot = deployment.ledger.utxos.serialize_snapshot()
            else:
                snapshot = b""
            node.send(
                MessageKind.SYNC_HEADERS,
                message.sender,
                (tuple(headers), snapshot),
                HEADER_SIZE * len(headers)
                + len(snapshot)
                + deployment.config.state_snapshot_bytes,
            )
        elif tag == "bodies":
            _, wanted = message.payload
            available = [
                node.store.body(block_hash)
                for block_hash in wanted
                if node.store.has_body(block_hash)
            ]
            node.send(
                MessageKind.SYNC_BODIES,
                message.sender,
                tuple(available),
                sum(block.size_bytes for block in available),
            )

    # ----------------------------------------------------------- receiving
    def _on_sync_headers(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        state = self.bootstraps.get(node.node_id)
        if state is not None:
            state.on_headers(*message.payload)

    def _on_sync_bodies(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        # A join outranks a repair session registered for the same node.
        state = self.bootstraps.get(node.node_id)
        if state is not None:
            state.on_bodies(message.sender, message.payload)
            return
        session = self.sessions.get(node.node_id)
        if session is not None:
            session(node, message.sender, message.payload)
