"""Message types exchanged on the simulated network.

Every message carries an explicit ``size_bytes`` so the simulator can model
transmission delay and the metrics layer can account traffic per message
kind.  Payloads are live Python objects (no real serialization on the wire
— sizes are computed from the ledger objects' deterministic wire encodings).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, NamedTuple

#: Fixed per-message envelope overhead (headers, framing), in bytes.
ENVELOPE_OVERHEAD = 40

_message_ids = itertools.count(1)
#: What ``NamedTuple._make`` calls underneath, minus its Python frame.
_new_record = tuple.__new__


class MessageKind(Enum):
    """Wire message taxonomy, used for traffic breakdowns."""

    # Members are singletons with identity equality, so the id-based C
    # hash is consistent — and dict lookups keyed by kind (router dispatch,
    # traffic counters) skip ``Enum.__hash__``'s Python-level frame.
    __hash__ = object.__hash__

    # Transaction relay
    TX_ANNOUNCE = "tx_announce"            # inv: txid only
    TX_REQUEST = "tx_request"              # ask a peer for a transaction
    TX_BODY = "tx_body"                    # full transaction

    # Block relay
    BLOCK_ANNOUNCE = "block_announce"      # inv: block hash + height
    BLOCK_HEADER = "block_header"          # 84-byte header
    BLOCK_BODY = "block_body"              # full block (header + txs)
    BLOCK_REQUEST = "block_request"        # ask a peer for a body
    HEADER_REQUEST = "header_request"      # ask a peer for header range

    # Intra-cluster collaborative verification (PBFT-style)
    VERIFY_PREPARE = "verify_prepare"      # holder's validity attestation
    VERIFY_COMMIT = "verify_commit"        # member's commit vote
    VERIFY_RESULT = "verify_result"        # aggregated decision

    # Bootstrap / sync
    SYNC_REQUEST = "sync_request"          # new node asks for chain state
    SYNC_HEADERS = "sync_headers"          # batch of headers
    SYNC_BODIES = "sync_bodies"            # batch of bodies (assigned slots)

    # Cluster membership
    CLUSTER_HELLO = "cluster_hello"        # membership announcement
    CLUSTER_ASSIGN = "cluster_assign"      # placement table update

    # Anti-entropy repair (periodic coverage reconciliation)
    REPAIR_DIGEST_REQUEST = "repair_digest_request"  # ask for coverage
    REPAIR_DIGEST = "repair_digest"        # compact held-body summary
    REPAIR_REQUEST = "repair_request"      # re-replication body pull
    REPAIR_BODIES = "repair_bodies"        # re-replication body (or miss)

    # Kademlia-style DHT overlay (opt-in holder/membership resolution)
    DHT_PING = "dht_ping"                  # liveness probe for a contact
    DHT_PONG = "dht_pong"                  # ping acknowledgement
    DHT_FIND_NODE = "dht_find_node"        # ask for contacts near a key
    DHT_NODES = "dht_nodes"                # k closest known contacts
    DHT_FIND_VALUE = "dht_find_value"      # ask for a provider record
    DHT_VALUE = "dht_value"                # record hit, or closer contacts
    DHT_STORE = "dht_store"                # publish a provider record

    # Generic control (tests, ping-style probes)
    CONTROL = "control"


#: kind -> ``kind.value``.  ``.value`` is a Python-level descriptor, and
#: per-message observers (metrics, tracing) label their counters with it.
KIND_VALUE = {kind: kind.value for kind in MessageKind}


class _MessageFields(NamedTuple):
    kind: MessageKind
    sender: int
    recipient: int
    payload: Any
    size_bytes: int
    message_id: int


class Message(_MessageFields):
    """A simulated wire message: an immutable, tuple-backed record.

    Attributes:
        kind: taxonomy bucket for traffic accounting.
        sender: node id of the origin.
        recipient: node id of the destination.
        payload: arbitrary live object interpreted by the handler.
        size_bytes: total bytes on the wire **including** envelope overhead
            (a smaller value is taken as payload bytes and the envelope
            added).
        message_id: unique id for tracing/deduplication; drawn from one
            process-wide sequence in construction order when omitted.
    """

    __slots__ = ()

    def __new__(
        cls, kind, sender, recipient, payload, size_bytes, message_id=None
    ):
        if size_bytes < ENVELOPE_OVERHEAD:
            size_bytes += ENVELOPE_OVERHEAD
        if message_id is None:
            message_id = next(_message_ids)
        return _new_record(
            cls, (kind, sender, recipient, payload, size_bytes, message_id)
        )


def sized_message(
    kind: MessageKind,
    sender: int,
    recipient: int,
    payload: Any,
    payload_bytes: int,
) -> Message:
    """Build a message whose wire size is ``payload_bytes`` + envelope."""
    # One C call; Message.__new__'s envelope and id defaults are done here.
    size = payload_bytes + ENVELOPE_OVERHEAD
    return _new_record(
        Message, (kind, sender, recipient, payload, size, next(_message_ids))
    )
