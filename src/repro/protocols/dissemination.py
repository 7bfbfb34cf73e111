"""Dissemination engine: header/tx gossip, body routing, fork handling.

Owns everything about how blocks and transactions *travel*: the header
and transaction gossip floods, targeted body delivery to placement
holders (full or compact bodies), orphan buffering
while parents are in flight, and the canonical ledger's fork/reorg
bookkeeping.  Once a body has landed at a node the engine hands it to
the verification engine (``deployment.verification``) — voting is not
its business.
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader, HEADER_SIZE
from repro.chain.transaction import Transaction
from repro.chain.validation import ValidationError, check_block_stateless
from repro.crypto.hashing import Hash32
from repro.errors import ForkError, UnknownBlockError
from repro.net.message import Message, MessageKind
from repro.net.gossip import GossipProtocol
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.compact import (
    CompactStats,
    PendingCompact,
    on_compact,
    send_compact,
)
from repro.protocols.router import MessageRouter, ProtocolEngine


class DisseminationEngine(ProtocolEngine):
    """Block/transaction relay and canonical-chain fork tracking."""

    name = "dissemination"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        #: Canonical validity verdict per block (shared oracle state).
        self.block_valid: dict[Hash32, bool] = {}
        # Side-branch blocks (valid statelessly, not on the active chain),
        # kept until a longer branch triggers a reorg.
        self.side_blocks: dict[Hash32, Block] = {}
        self.reorg_count = 0
        self.validated_bodies: dict[tuple[int, Hash32], bool] = {}
        self.orphan_bodies: dict[int, dict[Hash32, Block]] = {}
        self.orphan_headers: dict[int, dict[Hash32, BlockHeader]] = {}
        # Compact-block reconstruction state.
        self.pending_compact: dict[tuple[int, Hash32], PendingCompact] = {}
        self.compact_stats = CompactStats()

        self.header_gossip: GossipProtocol[BlockHeader] = GossipProtocol(
            network=self.network,
            announce_kind=MessageKind.BLOCK_ANNOUNCE,
            request_kind=MessageKind.HEADER_REQUEST,
            item_kind=MessageKind.BLOCK_HEADER,
            item_size=lambda header: HEADER_SIZE,
            on_item=self._on_header_gossiped,
        )
        self.tx_gossip: GossipProtocol[Transaction] = GossipProtocol(
            network=self.network,
            announce_kind=MessageKind.TX_ANNOUNCE,
            request_kind=MessageKind.TX_REQUEST,
            item_kind=MessageKind.TX_BODY,
            item_size=lambda tx: tx.size_bytes,
            on_item=self._on_transaction_gossiped,
        )

    def install(self, router: MessageRouter) -> None:
        router.register_gossip(self.header_gossip, owner=self.name)
        router.register_gossip(self.tx_gossip, owner=self.name)
        router.register(
            MessageKind.BLOCK_BODY, self._on_block_body, owner=self.name
        )

    # -------------------------------------------------------- dissemination
    def disseminate(self, block: Block, proposer_id: int) -> None:
        """Inject a sealed block at its proposer (see interface docs)."""
        deployment = self.deployment
        if proposer_id not in deployment.nodes:
            raise UnknownBlockError(f"unknown proposer {proposer_id}")
        block_hash = block.block_hash
        self.metrics.record_submit(block_hash, self.network.now)
        self.block_valid[block_hash] = self._canonical_accept(block)

        proposer = deployment.nodes[proposer_id]
        self.header_gossip.publish(proposer_id, block_hash, block.header)
        self.note_header(proposer, block.header)

        config = deployment.config
        if config.compact_blocks:
            # The proposer serves missing-transaction fetches until the
            # block finalizes (non-holders prune then).
            proposer.store.add_body(block)
        for view in deployment.clusters.views():
            holders = deployment.placement.holders(
                block.header, view.members, config.replication
            )
            for holder in holders:
                if config.compact_blocks:
                    send_compact(deployment, proposer, holder, block)
                else:
                    self.send_body(proposer, holder, block)
            if self.network.faults is not None:
                # Under faults, watch each assigned holder until its body
                # lands; the probe re-sends from a surviving replica.
                for holder in holders:
                    self._watch_body(block, view.cluster_id, holder)

    def _canonical_accept(self, block: Block) -> bool:
        ledger = self.deployment.ledger
        try:
            ledger.accept_block(block)
            return True
        except ValidationError:
            return False
        except ForkError:
            pass  # competing branch; handled below
        # Side-branch block: full stateful validation happens at reorg
        # time (the branch's UTXO state does not exist yet); holders
        # attest on the stateless rules, as real nodes do for stale tips.
        try:
            check_block_stateless(block, self.deployment.config.limits)
        except ValidationError:
            return False
        if not ledger.store.has_header(block.header.prev_hash):
            return False  # detached from everything we know
        self.side_blocks[block.block_hash] = block
        ledger.store.add_body(block)
        self._maybe_reorg(block)
        return True

    def _maybe_reorg(self, tip: Block) -> None:
        """Switch the canonical chain when a side branch gets longer."""
        ledger = self.deployment.ledger
        if tip.header.height <= ledger.height:
            return
        branch: list[Block] = []
        cursor = tip
        while cursor.block_hash in self.side_blocks:
            branch.append(cursor)
            parent = self.side_blocks.get(cursor.header.prev_hash)
            if parent is None:
                break
            cursor = parent
        branch.reverse()
        if not branch:
            return
        # Remember the soon-to-be-stale canonical blocks: a later re-reorg
        # back onto them must be able to reassemble that branch.
        attach_hash = branch[0].header.prev_hash
        stale: list[Block] = []
        cursor_header = ledger.tip
        while (
            cursor_header is not None
            and cursor_header.block_hash != attach_hash
            and not cursor_header.is_genesis
        ):
            if ledger.store.has_body(cursor_header.block_hash):
                stale.append(ledger.store.body(cursor_header.block_hash))
            cursor_header = ledger.store.header(cursor_header.prev_hash)
        try:
            ledger.reorg_to(branch)
        except (ValidationError, ForkError):
            # Branch is stateful-invalid or does not attach: mark it bad
            # so clusters that have not finalized yet reject it.
            for block in branch:
                self.block_valid[block.block_hash] = False
            return
        self.reorg_count += 1
        for block in branch:
            self.side_blocks.pop(block.block_hash, None)
        for block in stale:
            self.side_blocks[block.block_hash] = block

    def send_body(self, sender: BaseNode, recipient: int, block: Block) -> None:
        """Deliver one body (instantly when the sender is the recipient)."""
        if recipient == sender.node_id:
            self.on_body(self.deployment.nodes[recipient], block)
            return
        sender.send(
            MessageKind.BLOCK_BODY,
            recipient,
            ("body", block),
            block.size_bytes,
        )

    # ------------------------------------------------- fault-layer probes
    def _watch_body(self, block: Block, cluster_id: int, holder: int) -> None:
        """Re-deliver an assigned body until it validates at its holder.

        Started only on fault-injected networks.  The re-send comes from
        a *live* replica — preferring in-cluster members that already
        hold the body, exactly the alternate-peer failover the storage
        claim needs — until the holder validates, departs, or the
        attempts cap degrades the delivery.
        """
        self.deployment.reliability.watch(
            "block_body",
            waiting=lambda: self._body_owed(block, cluster_id, holder),
            kick=lambda attempt: self._resend_body(block, cluster_id, holder),
        )

    def _body_owed(self, block: Block, cluster_id: int, holder: int) -> bool:
        deployment = self.deployment
        return not (
            self.network.faults is None
            or self.validated_bodies.get((holder, block.block_hash))
            or holder not in deployment.nodes  # departed mid-watch
            # re-clustered away: placement will reassign
            or holder not in deployment.clusters.members_of(cluster_id)
        )

    def _resend_body(self, block: Block, cluster_id: int, holder: int) -> None:
        if not self.network.faults.is_live(holder):
            return
        source = self._probe_source(block.block_hash, cluster_id, holder)
        if source is not None:
            self.router.note_retry("block_body")
            self.send_body(self.deployment.nodes[source], holder, block)

    def _probe_source(
        self, block_hash: Hash32, cluster_id: int, holder: int
    ) -> int | None:
        """A live node holding the body: cluster-mates first, then anyone."""
        deployment = self.deployment
        faults = self.network.faults
        in_cluster = deployment.clusters.members_of(cluster_id)
        for candidates in (in_cluster, sorted(deployment.nodes)):
            for member in candidates:
                if member == holder or not faults.is_live(member):
                    continue
                node = deployment.nodes.get(member)
                if node is not None and node.store.has_body(block_hash):
                    return member
        return None

    # ------------------------------------------------------------ messages
    def _on_block_body(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        tag = message.payload[0]
        if tag == "body":
            self.on_body(node, message.payload[1])
        elif tag == "compact":
            _, header, txids = message.payload
            on_compact(self.deployment, node, header, txids, message.sender)
        else:  # "serve" / "miss": a body-transfer reply
            self.deployment.transfer.accept(node, message)

    # ----------------------------------------------------- header handling
    def _on_header_gossiped(self, node_id: int, header: BlockHeader) -> None:
        node = self.deployment.nodes.get(node_id)
        if node is not None:
            self.note_header(node, header)

    def note_header(self, node: ClusterNode, header: BlockHeader) -> None:
        """Index a learned header, charge the header check, open the round."""
        try:
            added = node.store.add_header(header)
        except ValidationError:
            # Parent still in flight: buffer and retry when it lands.
            self.orphan_headers.setdefault(node.node_id, {})[
                header.prev_hash
            ] = header
            return
        if not added:
            return
        verification = self.deployment.verification
        self.metrics.costs.charge_header_check()
        verification.ensure_round(node, header)
        verification.replay_pending(node, header.block_hash)
        self._retry_orphan_bodies(node)
        child = self.orphan_headers.get(node.node_id, {}).pop(
            header.block_hash, None
        )
        if child is not None:
            self.note_header(node, child)

    def _retry_orphan_bodies(self, node: ClusterNode) -> None:
        orphans = self.orphan_bodies.get(node.node_id)
        if not orphans:
            return
        ready = [
            block
            for block in orphans.values()
            if node.store.has_header(block.header.prev_hash)
        ]
        for block in ready:
            del orphans[block.block_hash]
            self.on_body(node, block)

    # ------------------------------------------------------- body handling
    def on_body(self, node: ClusterNode, block: Block) -> None:
        """A body landed at a node: store per placement, start verifying."""
        deployment = self.deployment
        block_hash = block.block_hash
        if not node.store.has_header(block.header.prev_hash) and not (
            block.header.is_genesis
        ):
            self.orphan_bodies.setdefault(node.node_id, {})[
                block_hash
            ] = block
            return
        already = self.validated_bodies.get((node.node_id, block_hash))
        if already:
            return
        self.validated_bodies[(node.node_id, block_hash)] = True
        self.note_header(node, block.header)

        holders = deployment.holders_in_cluster(block.header, node.cluster_id)
        if node.node_id in holders:
            node.assign_body(block)
        else:
            node.store.add_body(block)

        deployment.verification.start_verification(node, block)

    # ----------------------------------------------------------- tx relay
    def submit_transaction(self, tx: Transaction, origin_id: int) -> bool:
        """Inject a wallet transaction at a node; it relays by gossip."""
        origin = self.deployment.nodes[origin_id]
        assert origin.mempool is not None
        admitted = origin.mempool.add(tx, self.deployment.ledger.utxos)
        if admitted:
            self.tx_gossip.publish(origin_id, tx.txid, tx)
        return admitted

    def _on_transaction_gossiped(self, node_id: int, tx: Transaction) -> None:
        node = self.deployment.nodes.get(node_id)
        if node is None or node.mempool is None:
            return
        try:
            node.mempool.add(tx, self.deployment.ledger.utxos)
        except ValidationError:
            pass  # conflicting/late relay; drop silently like real nodes
