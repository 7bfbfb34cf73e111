"""SPV service: light clients verifying payments against ICI clusters.

A light client holds only headers.  To check that a payment is committed,
it asks any cluster node; the contact routes the request to the block's
placement holder, which answers with the transaction plus its Merkle
audit path; the client folds the path against the header it already has.

This is the thin-client story the intra-cluster integrity property
enables: *any* cluster can serve any proof, because every cluster holds
the whole ledger collectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crypto.hashing import Hash32
from repro.errors import MerkleError, UnknownBlockError, ValidationError
from repro.net.message import MessageKind
from repro.node.lightnode import LightNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment

#: Wire bytes of an SPV request (block hash + txid + ids).
SPV_REQUEST_BYTES = 80


@dataclass
class SpvRecord:
    """One SPV payment check's lifecycle."""

    request_id: int
    light_id: int
    block_hash: Hash32
    txid: Hash32
    started_at: float
    completed_at: float | None = None
    verified: bool | None = None
    proof_bytes: int = 0

    @property
    def latency(self) -> float | None:
        """Seconds from request to verdict (``None`` while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


def attach_light_client(deployment: "ICIDeployment") -> LightNode:
    """Register a headers-only client and sync it to the current tip.

    The header sync is applied directly (84 bytes/header is the SPV
    bootstrap floor measured separately in E5); subsequent headers arrive
    when the caller invokes :func:`refresh_light_client`.
    """
    light_id = max(
        [*deployment.nodes, *deployment.light_clients], default=-1
    ) + 1
    light = LightNode(light_id, deployment.network)
    light.attach(deployment)
    deployment.light_clients[light_id] = light
    contact = min(deployment.nodes)
    deployment.query.light_contacts[light_id] = contact
    refresh_light_client(deployment, light_id)
    return light


def refresh_light_client(
    deployment: "ICIDeployment", light_id: int
) -> int:
    """Bring a light client's header chain up to the canonical tip."""
    light = deployment.light_clients[light_id]
    added = 0
    for header in deployment.ledger.store.iter_active_headers():
        if light.accept_header(header):
            added += 1
    return added


def start_spv_check(
    deployment: "ICIDeployment",
    light_id: int,
    block_hash: Hash32,
    txid: Hash32,
) -> SpvRecord:
    """A light client asks its contact to prove a payment's inclusion."""
    light = deployment.light_clients[light_id]
    record = SpvRecord(
        request_id=deployment.query.next_spv_id,
        light_id=light_id,
        block_hash=block_hash,
        txid=txid,
        started_at=deployment.network.now,
    )
    deployment.query.next_spv_id += 1
    deployment.query.spv_records[record.request_id] = record
    deployment.metrics_spv.append(record)
    contact = deployment.query.light_contacts[light_id]
    light.send(
        MessageKind.CONTROL,
        contact,
        ("spv_req", record.request_id, light_id, block_hash, txid),
        SPV_REQUEST_BYTES,
    )
    return record


def handle_spv_request(deployment: "ICIDeployment", node, payload) -> None:
    """A cluster node routes/serves an SPV proof request."""
    _tag, request_id, light_id, block_hash, txid = payload
    if not node.store.has_body(block_hash):
        # Forward to the in-cluster primary holder of that block.
        try:
            header = node.store.header(block_hash)
        except UnknownBlockError:  # drop; the client will time out
            return
        holder = deployment.holders_in_cluster(header, node.cluster_id)[0]
        if holder != node.node_id:
            node.send(
                MessageKind.CONTROL,
                holder,
                payload,
                SPV_REQUEST_BYTES,
            )
        return
    block = node.store.body(block_hash)
    for index, tx in enumerate(block.transactions):
        if tx.txid == txid:
            proof = block.merkle_proof(index)
            node.send(
                MessageKind.CONTROL,
                light_id,
                ("spv_resp", request_id, tx, proof),
                tx.size_bytes + proof.size_bytes,
            )
            return
    # Transaction not in that block: answer with an explicit miss.
    node.send(
        MessageKind.CONTROL, light_id, ("spv_miss", request_id), 40
    )


def handle_spv_response(deployment: "ICIDeployment", light, payload) -> None:
    """The light client folds the served proof against its header."""
    tag = payload[0]
    if tag == "spv_miss":
        record = deployment.query.spv_records.get(payload[1])
        if record is not None and record.completed_at is None:
            record.completed_at = deployment.network.now
            record.verified = False
        return
    _tag, request_id, tx, proof = payload
    record = deployment.query.spv_records.get(request_id)
    if record is None or record.completed_at is not None:
        return
    record.completed_at = deployment.network.now
    record.proof_bytes = proof.size_bytes
    try:
        record.verified = light.verify_transaction(
            tx, record.block_hash, proof
        )
    except (UnknownBlockError, ValidationError, MerkleError):
        record.verified = False
