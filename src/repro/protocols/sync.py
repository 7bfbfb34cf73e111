"""Sync engine: the wire of node bootstrap and membership repair.

Owns the join's ``SYNC_REQUEST`` / ``SYNC_HEADERS`` header exchange and
the ``batch`` flow of the body-transfer service
(:mod:`repro.protocols.transfer`): a joiner's assigned bodies, and the
bodies a graceful leave or a crash repair re-homes.  A batch request's
id is the node it fills, and the reply goes to that node's session: its
join when one is in flight, else the departure session registered for
it as a target.  The join itself (state machine, session, fault watch)
lives in :mod:`repro.core.bootstrap` and the shrinkage planner in
:mod:`repro.core.departure`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.chain.block import Block, HEADER_SIZE
from repro.crypto.hashing import Hash32
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.router import MessageRouter, ProtocolEngine
from repro.protocols.transfer import Flow

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.bootstrap import BootstrapState
    from repro.core.departure import _RepairSession


class SyncEngine(ProtocolEngine):
    """Join/leave/crash-repair synchronization traffic."""

    name = "sync"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        #: Joiner node id -> in-flight join session.
        self.bootstraps: dict[int, "BootstrapState"] = {}
        #: Target node id -> the departure session last registered for
        #: it (a later departure's session takes the slot over).
        self.departures: dict[int, "_RepairSession"] = {}

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.SYNC_REQUEST, self._on_sync_request, owner=self.name
        )
        router.register(
            MessageKind.SYNC_HEADERS, self._on_sync_headers, owner=self.name
        )
        # A source holding none of a batch answers an envelope-only miss.
        self.deployment.transfer.flows["batch"] = Flow(
            0, self._batch_wanted, self._on_batch
        )

    # ------------------------------------------------------------ headers
    def _on_sync_request(self, node: BaseNode, message: Message) -> None:
        """A contact answers a joiner's header request."""
        assert isinstance(node, ClusterNode)
        deployment = self.deployment
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

    def _on_sync_headers(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        state = self.bootstraps.get(node.node_id)
        if state is not None:
            state.on_headers(*message.payload)

    # --------------------------------------------------------- body batches
    def request_batch(
        self, requester: ClusterNode, source: int, hashes: Sequence[Hash32]
    ) -> None:
        """Fetch ``hashes`` from ``source`` for ``requester``'s session."""
        self.deployment.transfer.request(
            requester,
            source,
            "batch",
            requester.node_id,
            tuple(hashes),
            64 + 32 * len(hashes),
        )

    def _batch_wanted(
        self, node: ClusterNode, node_id: int
    ) -> set[Hash32] | None:
        # A join outranks a departure session for the same node.
        state = self.bootstraps.get(node_id)
        if state is not None:
            return state.expected_bodies
        session = self.departures.get(node_id)
        return None if session is None else session.expected.get(node_id)

    def _on_batch(
        self,
        node: ClusterNode,
        source: int,
        node_id: int,
        bodies: list[Block],
    ) -> None:
        session = self.bootstraps.get(node_id) or self.departures[node_id]
        session.on_bodies(node, source, bodies)
