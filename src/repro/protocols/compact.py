"""Compact block dissemination (BIP-152 analogue).

When transactions were relayed ahead of the block, a holder's mempool
already contains almost the whole body.  Compact mode therefore ships
``header + ordered txid list`` (32 bytes per transaction) instead of full
bodies; the holder reconstructs the block locally and round-trips only
the transactions it misses (always at least the coinbase, which is never
relayed).  The reconstructed body is checked against the header's Merkle
commitment before verification proceeds, so a lying sender cannot smuggle
a different body in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.block import Block, BlockHeader, HEADER_SIZE
from repro.chain.transaction import Transaction
from repro.crypto.hashing import Hash32
from repro.net.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment
    from repro.node.clusternode import ClusterNode

#: Wire bytes of one txid in a compact announcement.
TXID_BYTES = 32


def compact_payload_bytes(n_txids: int) -> int:
    """Wire size of a compact block announcement."""
    return HEADER_SIZE + TXID_BYTES * n_txids


@dataclass
class PendingCompact:
    """A holder's partially-reconstructed block."""

    header: BlockHeader
    txids: tuple[Hash32, ...]
    origin: int
    have: dict[Hash32, Transaction] = field(default_factory=dict)

    @property
    def missing(self) -> list[Hash32]:
        """Referenced txids not yet reconstructed."""
        return [txid for txid in self.txids if txid not in self.have]

    def assemble(self) -> Block:
        """Build the block from the collected transactions."""
        return Block(
            header=self.header,
            transactions=tuple(self.have[txid] for txid in self.txids),
        )


@dataclass
class CompactStats:
    """How well reconstruction-from-mempool worked."""

    announcements: int = 0
    transactions_referenced: int = 0
    transactions_fetched: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of referenced transactions found locally."""
        if not self.transactions_referenced:
            return 1.0
        return 1.0 - (
            self.transactions_fetched / self.transactions_referenced
        )


def send_compact(
    deployment: "ICIDeployment",
    sender,
    recipient: int,
    block: Block,
) -> None:
    """Announce ``block`` compactly to one holder."""
    txids = tuple(tx.txid for tx in block.transactions)
    payload = ("compact", block.header, txids)
    if recipient == sender.node_id:
        # The proposer already holds the full block it just built — no
        # reconstruction round trip; go straight to validation.
        node = deployment.nodes[recipient]
        deployment.dissemination.on_body(node, block)
        return
    sender.send(
        MessageKind.BLOCK_BODY,
        recipient,
        payload,
        compact_payload_bytes(len(txids)),
    )


def on_compact(
    deployment: "ICIDeployment",
    node: "ClusterNode",
    header: BlockHeader,
    txids: tuple[Hash32, ...],
    origin: int,
) -> None:
    """A holder received a compact announcement: reconstruct or fetch."""
    key = (node.node_id, header.block_hash)
    if key in deployment.dissemination.pending_compact or node.store.has_body(
        header.block_hash
    ):
        return
    pending = PendingCompact(header=header, txids=txids, origin=origin)
    deployment.compact_stats.announcements += 1
    deployment.compact_stats.transactions_referenced += len(txids)
    if node.mempool is not None:
        for txid in txids:
            if txid in node.mempool:
                pending.have[txid] = node.mempool.get(txid)
    missing = pending.missing
    if not missing:
        _complete(deployment, node, key, pending)
        return
    deployment.dissemination.pending_compact[key] = pending
    node.send(
        MessageKind.CONTROL,
        origin,
        ("txfetch", node.node_id, header.block_hash, tuple(missing)),
        TXID_BYTES * len(missing) + 40,
    )


def on_txfetch(
    deployment: "ICIDeployment", node: "ClusterNode", payload
) -> None:
    """The origin serves the transactions a holder is missing."""
    _tag, requester, block_hash, missing = payload
    if not node.store.has_body(block_hash):
        return  # origin pruned it already; requester will stay pending
    block = node.store.body(block_hash)
    found = [
        tx
        for tx in block.transactions
        if tx.txid in set(missing)
    ]
    node.send(
        MessageKind.CONTROL,
        requester,
        ("txfill", block_hash, tuple(found)),
        sum(tx.size_bytes for tx in found) + 40,
    )


def on_txfill(
    deployment: "ICIDeployment", node: "ClusterNode", payload
) -> None:
    """Missing transactions arrived: finish reconstruction."""
    _tag, block_hash, transactions = payload
    key = (node.node_id, block_hash)
    pending = deployment.dissemination.pending_compact.get(key)
    if pending is None:
        return
    for tx in transactions:
        if tx.txid in set(pending.txids):
            pending.have[tx.txid] = tx
            deployment.compact_stats.transactions_fetched += 1
    if not pending.missing:
        del deployment.dissemination.pending_compact[key]
        _complete(deployment, node, key, pending)


def _complete(
    deployment: "ICIDeployment",
    node: "ClusterNode",
    key: tuple[int, Hash32],
    pending: PendingCompact,
) -> None:
    block = pending.assemble()
    if not block.verify_merkle_commitment():
        return  # sender lied about the body; drop and let retries handle it
    deployment.dissemination.on_body(node, block)
