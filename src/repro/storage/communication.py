"""The exact traffic model of one block's dissemination.

Companion to :mod:`repro.storage.accounting`: per strategy, the count and
wire bytes of every message kind one block sends when
``ScenarioRunner.produce_blocks`` runs it on a clean network.  The tests
assert that a run's ``TrafficLedger`` *equals* the sum of these tables;
E4 and E17 print both.  Inputs: the overlay's edge count ``E``, the
cluster or committee sizes, the deployment's ``replication`` and
``aggregate_votes``, and per block its wire size and whether the
proposer already holds a copy its group would otherwise be sent.

Out of scope: compact blocks, relayed transactions, joins, queries and
whatever a fault injector does.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.chain.block import HEADER_SIZE
from repro.consensus.quorum import byzantine_quorum
from repro.consensus.votes import CommitVote, PrepareAttestation
from repro.errors import ConfigurationError
from repro.net.gossip import ANNOUNCE_PAYLOAD_BYTES, REQUEST_PAYLOAD_BYTES
from repro.net.message import ENVELOPE_OVERHEAD, MessageKind
from repro.net.topology import Topology, clustered_topology, random_regular

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ICIConfig

#: ``kind -> (messages, bytes)``; kinds that send nothing are absent.
Traffic = dict[MessageKind, tuple[int, int]]


def _wire(count: int, payload_bytes: int) -> tuple[int, int]:
    return count, count * (payload_bytes + ENVELOPE_OVERHEAD)


#: The (request, item) kinds of a header flood.
_HEADERS = (MessageKind.HEADER_REQUEST, MessageKind.BLOCK_HEADER)


def _flood(
    edges: int,
    n_nodes: int,
    kinds: tuple[MessageKind, MessageKind],
    item_bytes: int,
) -> Traffic:
    """Announce/request/deliver gossip of one item from one origin: every
    node announces it to each peer once, every other node requests and
    receives it once."""
    request, item = kinds
    return {
        MessageKind.BLOCK_ANNOUNCE: _wire(2 * edges, ANNOUNCE_PAYLOAD_BYTES),
        request: _wire(n_nodes - 1, REQUEST_PAYLOAD_BYTES),
        item: _wire(n_nodes - 1, item_bytes),
    }


def _sent(traffic: Traffic) -> Traffic:
    return {kind: wire for kind, wire in traffic.items() if wire[0]}


def full_replication_traffic(
    edges: int, n_nodes: int, block_bytes: int
) -> Traffic:
    """Full replication floods the whole block over the peer graph."""
    kinds = (MessageKind.BLOCK_REQUEST, MessageKind.BLOCK_BODY)
    return _sent(_flood(edges, n_nodes, kinds, block_bytes))


def rapidchain_traffic(
    edges: int,
    n_nodes: int,
    committee_size: int,
    block_bytes: int,
    proposer_leads: bool,
) -> Traffic:
    """RapidChain floods the header; the proposer hands the body to the
    home committee's leader, which sends it to every other member:
    ``g`` transfers, one fewer when the proposer is that leader."""
    traffic = _flood(edges, n_nodes, _HEADERS, HEADER_SIZE)
    traffic[MessageKind.BLOCK_BODY] = _wire(
        committee_size - proposer_leads, block_bytes
    )
    return _sent(traffic)


def ici_traffic(
    edges: int,
    cluster_sizes: Sequence[int],
    config: ICIConfig,
    block_bytes: int,
    proposer_holds: bool,
) -> Traffic:
    """ICIStrategy: the header flood; the block to the ``r`` holders of
    every cluster (one fewer when the proposer is one of its own
    cluster's); each holder's prepare to the ``m − 1`` other members;
    with ``aggregate_votes``, ``m − 1`` commits to the aggregator and its
    quorum certificate back, without, every member's commit to every
    other member.

    Raises:
        ConfigurationError: when a cluster is smaller than ``r``.
    """
    replication = config.replication
    if not cluster_sizes or min(cluster_sizes) < replication:
        raise ConfigurationError("every cluster needs at least r members")
    n_nodes = sum(cluster_sizes)
    links = n_nodes - len(cluster_sizes)  # Σ (m − 1)
    traffic = _flood(edges, n_nodes, _HEADERS, HEADER_SIZE)
    traffic[MessageKind.BLOCK_BODY] = _wire(
        replication * len(cluster_sizes) - proposer_holds, block_bytes
    )
    traffic[MessageKind.VERIFY_PREPARE] = _wire(
        replication * links, PrepareAttestation.WIRE_BYTES
    )
    if config.aggregate_votes:
        traffic[MessageKind.VERIFY_COMMIT] = _wire(
            links, CommitVote.WIRE_BYTES
        )
        # ``QuorumCertificate.wire_bytes``, carrying the cluster's quorum.
        certificates = [
            _wire(m - 1, 33 + byzantine_quorum(m) * CommitVote.WIRE_BYTES)
            for m in cluster_sizes
        ]
        traffic[MessageKind.VERIFY_RESULT] = (
            links,
            sum(size for _, size in certificates),
        )
    else:
        traffic[MessageKind.VERIFY_COMMIT] = _wire(
            sum(m * (m - 1) for m in cluster_sizes), CommitVote.WIRE_BYTES
        )
    return _sent(traffic)


def total(tables: Iterable[Traffic]) -> Traffic:
    """Per-kind sums of several blocks' tables."""
    counts: Counter[MessageKind] = Counter()
    sizes: Counter[MessageKind] = Counter()
    for table in tables:
        for kind, (count, size) in table.items():
            counts[kind] += count
            sizes[kind] += size
    return {kind: (counts[kind], sizes[kind]) for kind in counts}


def edge_count(topology: Topology) -> int:
    """``E`` of an undirected peer graph."""
    return sum(map(len, topology.values())) // 2


def ici_advantage_factor(
    n_nodes: int, cluster_size: int, config: ICIConfig, body_bytes: int
) -> float:
    """Full-replication dissemination bytes over ICI's, per block.

    ``E`` comes from building both overlays at ``n_nodes``: the
    clustered one over clusters of ``cluster_size`` in id order (the
    last holds the remainder), and full replication's ``random_regular``
    at its default degree and seed.  The proposer holds no copy.  Grows
    toward ``m/r`` as bodies dominate (large blocks): that is the paper's
    communication claim in its asymptotic form.
    """
    clusters = [
        range(start, min(start + cluster_size, n_nodes))
        for start in range(0, n_nodes, cluster_size)
    ]
    block_bytes = HEADER_SIZE + body_bytes
    full = full_replication_traffic(
        edge_count(random_regular(range(n_nodes))), n_nodes, block_bytes
    )
    ici = ici_traffic(
        edge_count(clustered_topology(clusters)),
        [len(members) for members in clusters],
        config,
        block_bytes,
        proposer_holds=False,
    )
    return sum(size for _, size in full.values()) / sum(
        size for _, size in ici.values()
    )


__all__ = [
    "Traffic",
    "full_replication_traffic",
    "rapidchain_traffic",
    "ici_traffic",
    "total",
    "edge_count",
    "ici_advantage_factor",
]
