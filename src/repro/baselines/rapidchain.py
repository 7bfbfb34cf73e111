"""RapidChain-style committee sharding — the paper's main comparator.

Storage model (what the 25% claim is measured against): the network is
split into ``k`` committees of size ``g``; each block belongs to one home
committee (``block_hash mod k``) and **every member of that committee**
stores the full body.  Per-node storage is therefore the shard size
``D·g/N``, and network-total storage is ``g·D`` — independent of ``N``.

Headers still reach every node (84 bytes/block), keeping the comparison
with ICIStrategy apples-to-apples: all strategies maintain a global header
chain; they differ in where bodies live.

Intra-committee agreement is modelled as: the proposer hands the body to
the committee leader, the leader fans it out, every member fully
validates, and the block counts as committee-final when a Byzantine
quorum of members has validated it.
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader, HEADER_SIZE
from repro.chain.chainstore import Ledger
from repro.chain.genesis import make_genesis
from repro.chain.validation import DEFAULT_LIMITS, ValidationError, ValidationLimits
from repro.clustering.algorithms import RandomBalancedClustering
from repro.clustering.membership import ClusterTable
from repro.consensus.quorum import byzantine_quorum
from repro.core.interface import StorageDeployment
from repro.core.metrics import BootstrapReport
from repro.crypto.hashing import Hash32
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError, UnknownBlockError
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.net.gossip import GossipProtocol
from repro.net.topology import clustered_topology
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.query import QueryRecord
from repro.protocols.router import FinalizeEvent


class RapidChainDeployment(StorageDeployment):
    """N nodes in k committees, per-committee full shard replication."""

    def __init__(
        self,
        n_nodes: int,
        n_committees: int,
        network: Network | None = None,
        genesis: Block | None = None,
        limits: ValidationLimits = DEFAULT_LIMITS,
        seed: int = 0,
    ) -> None:
        super().__init__(network or Network())
        if n_committees < 1 or n_committees > n_nodes:
            raise ConfigurationError(
                "n_committees must be in [1, n_nodes]"
            )
        self.limits = limits
        if genesis is None:
            genesis = make_genesis([KeyPair.from_seed(0).address])
        self.genesis = genesis
        self.ledger = Ledger(genesis=genesis, limits=limits)

        self.nodes: dict[int, ClusterNode] = {}
        node_ids = list(range(n_nodes))
        self.committees: ClusterTable = RandomBalancedClustering(
            seed=seed
        ).form_clusters(node_ids, n_committees)
        for node_id in node_ids:
            node = ClusterNode(
                node_id,
                self.network,
                cluster_id=self.committees.cluster_of(node_id),
                limits=limits,
            )
            node.attach(self)
            self.nodes[node_id] = node
        self.network.set_topology(
            clustered_topology(
                [list(v.members) for v in self.committees.views()],
                seed=seed,
            )
        )
        self._block_valid: dict[Hash32, bool] = {}
        self._orphan_headers: dict[int, dict[Hash32, BlockHeader]] = {}
        self._validated_count: dict[tuple[int, Hash32], set[int]] = {}
        self._queries: dict[int, QueryRecord] = {}
        self._next_request_id = 0
        self._pending_join: tuple[int, BootstrapReport] | None = None
        self._header_gossip: GossipProtocol[BlockHeader] = GossipProtocol(
            network=self.network,
            announce_kind=MessageKind.BLOCK_ANNOUNCE,
            request_kind=MessageKind.HEADER_REQUEST,
            item_kind=MessageKind.BLOCK_HEADER,
            item_size=lambda header: HEADER_SIZE,
            on_item=self._on_header,
        )
        self.router.register_gossip(
            self._header_gossip, owner="header-gossip"
        )
        self.router.register(
            MessageKind.BLOCK_BODY, self._on_block_body, owner="committee"
        )
        self.router.register(
            MessageKind.BLOCK_REQUEST, self._on_block_request, owner="query"
        )
        self.router.register(
            MessageKind.SYNC_REQUEST, self._serve_sync, owner="sync"
        )
        self.router.register(
            MessageKind.SYNC_BODIES, self._on_sync_bodies, owner="sync"
        )
        self._seed_genesis(genesis)

    def _seed_genesis(self, genesis: Block) -> None:
        home = self.home_committee(genesis.header)
        for node in self.nodes.values():
            node.store.add_header(genesis.header)
            node.finalize(genesis.block_hash)
            if node.cluster_id == home:
                node.assign_body(genesis)
        self._block_valid[genesis.block_hash] = True

    # -------------------------------------------------------------- routing
    def home_committee(self, header: BlockHeader) -> int:
        """The committee whose shard owns this block."""
        return (
            int.from_bytes(header.block_hash[:8], "big")
            % self.committees.cluster_count
        )

    def committee_leader(self, committee_id: int) -> int:
        """The committee's fan-out leader (its first member)."""
        return self.committees.members_of(committee_id)[0]

    # -------------------------------------------------------- dissemination
    def disseminate(self, block: Block, proposer_id: int) -> None:
        """Route a sealed block to its home committee + gossip the header."""
        if proposer_id not in self.nodes:
            raise UnknownBlockError(f"unknown proposer {proposer_id}")
        block_hash = block.block_hash
        self.metrics.record_submit(block_hash, self.network.now)
        try:
            self.ledger.accept_block(block)
            self._block_valid[block_hash] = True
        except ValidationError:
            self._block_valid[block_hash] = False

        proposer = self.nodes[proposer_id]
        self._header_gossip.publish(proposer_id, block_hash, block.header)
        self._index_header(proposer, block.header)
        home = self.home_committee(block.header)
        leader = self.committee_leader(home)
        if leader == proposer_id:
            self._on_body(proposer, block)
        else:
            proposer.send(
                MessageKind.BLOCK_BODY,
                leader,
                ("body", block),
                block.size_bytes,
            )

    def _on_header(self, node_id: int, header: BlockHeader) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            return
        self._index_header(node, header)

    def _index_header(self, node: ClusterNode, header: BlockHeader) -> None:
        """Index a header, buffering it while its parent is in flight."""
        try:
            added = node.store.add_header(header)
        except ValidationError:
            self._orphan_headers.setdefault(node.node_id, {})[
                header.prev_hash
            ] = header
            return
        if not added:
            return
        self.metrics.costs.charge_header_check()
        child = self._orphan_headers.get(node.node_id, {}).pop(
            header.block_hash, None
        )
        if child is not None:
            self._index_header(node, child)

    def _on_body(self, node: ClusterNode, block: Block) -> None:
        block_hash = block.block_hash
        validated = self._validated_count.setdefault(
            (node.cluster_id, block_hash), set()
        )
        if node.node_id in validated:
            return
        if not node.store.has_header(block.header.prev_hash):
            # Home-committee bodies can outrun header gossip; index the
            # parent from the canonical chain (a real node would fetch it).
            for header in self.ledger.store.iter_active_headers():
                if not node.store.has_header(header.block_hash):
                    node.store.add_header(header)
        leader = self.committee_leader(node.cluster_id)
        if node.node_id == leader:
            for member in self.committees.members_of(node.cluster_id):
                if member != node.node_id:
                    node.send(
                        MessageKind.BLOCK_BODY,
                        member,
                        ("body", block),
                        block.size_bytes,
                    )
        cost = self.metrics.costs.charge_full_validation(block)
        self.network.clock.schedule(
            cost, lambda: self._after_validate(node, block)
        )

    def _after_validate(self, node: ClusterNode, block: Block) -> None:
        block_hash = block.block_hash
        if not self._block_valid.get(block_hash, False):
            self.metrics.blocks_rejected.add(block_hash)
            return
        node.assign_body(block)
        node.finalize(block_hash)
        # Per-node finality only — the committee is final at quorum, not
        # when any single member finishes validating.
        self.router.notify_finalize(
            FinalizeEvent(
                block_hash=block_hash,
                node_id=node.node_id,
                cluster_id=node.cluster_id,
                accepted=True,
                at=self.network.now,
                cluster_final=False,
            )
        )
        validated = self._validated_count.setdefault(
            (node.cluster_id, block_hash), set()
        )
        validated.add(node.node_id)
        quorum = byzantine_quorum(
            len(self.committees.members_of(node.cluster_id))
        )
        if len(validated) == quorum:
            self.router.notify_finalize(
                FinalizeEvent(
                    block_hash=block_hash,
                    node_id=None,
                    cluster_id=node.cluster_id,
                    accepted=True,
                    at=self.network.now,
                )
            )

    # ------------------------------------------------------------ messages
    def _on_block_body(self, node: BaseNode, message: Message) -> None:
        """A committee body delivery or a served cross-shard read."""
        assert isinstance(node, ClusterNode)
        tag = message.payload[0]
        if tag == "body":
            self._on_body(node, message.payload[1])
        elif tag == "serve":
            _, request_id, _block = message.payload
            record = self._queries.get(request_id)
            if record is not None and record.completed_at is None:
                record.completed_at = self.network.now

    def _on_block_request(self, node: BaseNode, message: Message) -> None:
        """A home-committee member serves a cross-shard read."""
        assert isinstance(node, ClusterNode)
        request_id, block_hash = message.payload
        if node.store.has_body(block_hash):
            block = node.store.body(block_hash)
            node.send(
                MessageKind.BLOCK_BODY,
                message.sender,
                ("serve", request_id, block),
                block.size_bytes,
            )

    # -------------------------------------------------------------- queries
    def retrieve_block(
        self, requester_id: int, block_hash: Hash32
    ) -> QueryRecord:
        """Cross-shard read: ask a home-committee member when not local."""
        node = self.nodes[requester_id]
        record = QueryRecord(
            request_id=self._next_request_id,
            requester=requester_id,
            block_hash=block_hash,
            started_at=self.network.now,
        )
        self._next_request_id += 1
        self.metrics.queries.append(record)
        self._queries[record.request_id] = record
        if node.store.has_body(block_hash):
            record.completed_at = self.network.now
            return record
        header = node.store.header(block_hash)
        home = self.home_committee(header)
        target = next(
            (
                member
                for member in self.committees.members_of(home)
                if self.network.is_online(member)
            ),
            None,
        )
        if target is None:
            return record
        node.send(
            MessageKind.BLOCK_REQUEST,
            target,
            (record.request_id, block_hash),
            64,
        )
        return record

    # ------------------------------------------------------------ bootstrap
    def join_new_node(self) -> BootstrapReport:
        """A joiner downloads headers plus its committee's whole shard."""
        new_id = max(self.nodes) + 1
        committee = self.committees.smallest_cluster()
        self.committees.add_node(new_id, committee)
        node = ClusterNode(
            new_id, self.network, cluster_id=committee, limits=self.limits
        )
        node.attach(self)
        self.nodes[new_id] = node
        report = BootstrapReport(
            node_id=new_id,
            cluster_id=committee,
            started_at=self.network.now,
        )
        self.metrics.bootstraps.append(report)
        contact = next(
            (
                member
                for member in self.committees.members_of(committee)
                if member != new_id and self.network.is_online(member)
            ),
            None,
        )
        if contact is None:
            return report
        self._pending_join = (new_id, report)
        node.send(MessageKind.SYNC_REQUEST, contact, ("shard",), 64)
        return report

    def _serve_sync(self, node: ClusterNode, message: Message) -> None:
        headers = list(self.ledger.store.iter_active_headers())
        shard = [
            node.store.body(header.block_hash)
            for header in headers
            if node.store.has_body(header.block_hash)
        ]
        node.send(
            MessageKind.SYNC_BODIES,
            message.sender,
            (tuple(headers), tuple(shard)),
            HEADER_SIZE * len(headers)
            + sum(block.size_bytes for block in shard),
        )

    def _on_sync_bodies(self, node: ClusterNode, message: Message) -> None:
        if self._pending_join is None or self._pending_join[0] != node.node_id:
            return
        _, report = self._pending_join
        headers, shard = message.payload
        for header in headers:
            node.store.add_header(header)
            node.finalize(header.block_hash)
        report.header_bytes = HEADER_SIZE * len(headers)
        for block in shard:
            node.assign_body(block)
            report.body_bytes += block.size_bytes
            report.bodies_fetched += 1
        report.completed_at = self.network.now
        self._pending_join = None
