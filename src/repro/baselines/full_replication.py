"""Full-replication baseline: every node stores and validates everything.

The Bitcoin-style deployment the paper's storage numbers are measured
against.  Blocks flood the random peer graph by announce/request/deliver
gossip; every node runs full validation and keeps every body forever.
Message dispatch goes through the deployment's shared
:class:`~repro.protocols.router.MessageRouter` — handlers are registered
at construction, and finalizations publish on the router's hooks.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.genesis import make_genesis
from repro.chain.validation import DEFAULT_LIMITS, ValidationError, ValidationLimits
from repro.core.interface import StorageDeployment
from repro.core.metrics import BootstrapReport
from repro.crypto.hashing import Hash32
from repro.crypto.keys import KeyPair
from repro.errors import ForkError, UnknownBlockError
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.net.gossip import GossipProtocol
from repro.net.topology import random_regular
from repro.node.base import BaseNode
from repro.node.fullnode import FullNode
from repro.protocols.query import QueryRecord
from repro.protocols.router import FinalizeEvent


class FullReplicationDeployment(StorageDeployment):
    """N full nodes, flooding gossip, complete replication."""

    def __init__(
        self,
        n_nodes: int,
        network: Network | None = None,
        genesis: Block | None = None,
        degree: int = 8,
        limits: ValidationLimits = DEFAULT_LIMITS,
        seed: int = 0,
    ) -> None:
        super().__init__(network or Network())
        if genesis is None:
            genesis = make_genesis([KeyPair.from_seed(0).address])
        self.genesis = genesis
        self.limits = limits
        self.nodes: dict[int, FullNode] = {}
        for node_id in range(n_nodes):
            node = FullNode(node_id, self.network, genesis, limits=limits)
            node.attach(self)
            self.nodes[node_id] = node
        self.network.set_topology(
            random_regular(list(self.nodes), degree=degree, seed=seed)
        )
        self._orphans: dict[int, dict[Hash32, Block]] = {}
        self._queries: dict[int, QueryRecord] = {}
        self._next_request_id = 0
        self._block_gossip: GossipProtocol[Block] = GossipProtocol(
            network=self.network,
            announce_kind=MessageKind.BLOCK_ANNOUNCE,
            request_kind=MessageKind.BLOCK_REQUEST,
            item_kind=MessageKind.BLOCK_BODY,
            item_size=lambda block: block.size_bytes,
            on_item=self._on_block,
        )
        self.router.register_gossip(self._block_gossip, owner="block-gossip")
        self.router.register(
            MessageKind.SYNC_REQUEST, self._serve_sync, owner="sync"
        )
        self.router.register(
            MessageKind.SYNC_BODIES, self._on_sync_bodies, owner="sync"
        )

    # -------------------------------------------------------- dissemination
    def disseminate(self, block: Block, proposer_id: int) -> None:
        """Flood a sealed block from its proposer."""
        if proposer_id not in self.nodes:
            raise UnknownBlockError(f"unknown proposer {proposer_id}")
        self.metrics.record_submit(block.block_hash, self.network.now)
        self._accept_at(proposer_id, block)
        self._block_gossip.publish(proposer_id, block.block_hash, block)

    def _on_block(self, node_id: int, block: Block) -> None:
        self._accept_at(node_id, block)

    def _accept_at(self, node_id: int, block: Block) -> None:
        node = self.nodes[node_id]
        try:
            applied = node.accept_block(block)
        except ForkError:
            self._orphans.setdefault(node_id, {})[block.block_hash] = block
            return
        except ValidationError:
            return
        if not applied:
            return
        self.metrics.costs.charge_full_validation(block)
        # Full replication has no clusters; the whole network is "cluster
        # 0" — the first node to apply a block stamps its cluster-final
        # time; later nodes' events only count towards finalize_events.
        self.router.notify_finalize(
            FinalizeEvent(
                block_hash=block.block_hash,
                node_id=node_id,
                cluster_id=0,
                accepted=True,
                at=self.network.now,
            )
        )
        self._retry_orphans(node_id)

    def _retry_orphans(self, node_id: int) -> None:
        orphans = self._orphans.get(node_id)
        if not orphans:
            return
        node = self.nodes[node_id]
        ready = [
            block
            for block in orphans.values()
            if node.store.has_header(block.header.prev_hash)
        ]
        for block in ready:
            del orphans[block.block_hash]
            self._accept_at(node_id, block)

    # -------------------------------------------------------------- queries
    def retrieve_block(
        self, requester_id: int, block_hash: Hash32
    ) -> QueryRecord:
        """Local read — every node holds every body."""
        node = self.nodes[requester_id]
        record = QueryRecord(
            request_id=self._next_request_id,
            requester=requester_id,
            block_hash=block_hash,
            started_at=self.network.now,
        )
        self._next_request_id += 1
        self.metrics.queries.append(record)
        if node.store.has_body(block_hash):
            record.completed_at = self.network.now
        return record

    # ------------------------------------------------------------ bootstrap
    def join_new_node(self) -> BootstrapReport:
        """A joining full node downloads the complete ledger."""
        new_id = max(self.nodes) + 1
        node = FullNode(new_id, self.network, self.genesis, limits=self.limits)
        node.attach(self)
        self.nodes[new_id] = node
        contact = next(
            (n for n in sorted(self.nodes) if n != new_id
             and self.network.is_online(n)),
            None,
        )
        report = BootstrapReport(
            node_id=new_id,
            cluster_id=0,
            started_at=self.network.now,
        )
        self.metrics.bootstraps.append(report)
        if contact is None:
            return report
        self._pending_join = (new_id, report)
        node.send(MessageKind.SYNC_REQUEST, contact, ("full",), 64)
        return report

    def _serve_sync(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, FullNode)
        blocks = [
            node.store.body(header.block_hash)
            for header in node.store.iter_active_headers()
            if node.store.has_body(header.block_hash)
        ]
        node.send(
            MessageKind.SYNC_BODIES,
            message.sender,
            tuple(blocks),
            sum(block.size_bytes for block in blocks),
        )

    def _on_sync_bodies(self, node: BaseNode, message: Message) -> None:
        pending = getattr(self, "_pending_join", None)
        if pending is None or pending[0] != node.node_id:
            return
        _, report = pending
        assert isinstance(node, FullNode)
        for block in message.payload:
            report.body_bytes += block.size_bytes
            if block.header.is_genesis:
                continue  # the joiner was constructed with genesis applied
            node.accept_block(block)
        report.bodies_fetched = len(message.payload)
        report.completed_at = self.network.now
        self._pending_join = None
