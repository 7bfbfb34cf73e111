"""Closed-form communication models for block dissemination.

Companion to :mod:`repro.storage.accounting`: analytic per-block traffic
for each strategy, used to cross-check the simulator in E4 and to reason
about the paper's communication claim at scales too large to simulate.

All formulas count *payload* bytes of one block's dissemination (header
flooding + body transport + verification votes), with the simulator's
envelope overhead per message.
"""

from __future__ import annotations

from repro.chain.block import HEADER_SIZE
from repro.consensus.quorum import byzantine_quorum
from repro.consensus.votes import CommitVote, PrepareAttestation
from repro.errors import ConfigurationError
from repro.net.gossip import (
    ANNOUNCE_PAYLOAD_BYTES,
    REQUEST_PAYLOAD_BYTES,
    flood_cost_bytes,
)
from repro.net.message import ENVELOPE_OVERHEAD


def _check(n_nodes: int, group_size: int) -> None:
    if n_nodes < 1:
        raise ConfigurationError("n_nodes must be positive")
    if not 1 <= group_size <= n_nodes:
        raise ConfigurationError("group size must be in [1, n_nodes]")


def header_flood_bytes(n_nodes: int, degree: int = 8) -> int:
    """Announce/request/deliver flooding of one 84-byte header."""
    return flood_cost_bytes(
        n_nodes, HEADER_SIZE, degree, envelope=ENVELOPE_OVERHEAD
    )


def full_replication_block_bytes(
    n_nodes: int, body_bytes: int, degree: int = 8
) -> int:
    """Flooding one full block to every node."""
    _check(n_nodes, 1)
    return flood_cost_bytes(
        n_nodes, HEADER_SIZE + body_bytes, degree, envelope=ENVELOPE_OVERHEAD
    )


def ici_block_bytes(
    n_nodes: int,
    cluster_size: int,
    replication: int,
    body_bytes: int,
    degree: int = 8,
    aggregate_votes: bool = True,
) -> int:
    """ICIStrategy: header flood + per-cluster holder bodies + votes.

    * bodies: ``(N/m)·r`` transfers of the full block;
    * prepares: each of a cluster's ``r`` holders attests to ``m−1``
      members;
    * commits: ``m−1`` members → aggregator (or all-to-all without
      aggregation);
    * result: the aggregator's quorum certificate to ``m−1`` members.
    """
    _check(n_nodes, cluster_size)
    if not 1 <= replication <= cluster_size:
        raise ConfigurationError("replication must be in [1, cluster size]")
    n_clusters = n_nodes / cluster_size
    bodies = (
        n_clusters
        * replication
        * (HEADER_SIZE + body_bytes + ENVELOPE_OVERHEAD)
    )
    prepares = (
        n_clusters
        * replication
        * (cluster_size - 1)
        * (PrepareAttestation.WIRE_BYTES + ENVELOPE_OVERHEAD)
    )
    commit_wire = CommitVote.WIRE_BYTES + ENVELOPE_OVERHEAD
    if aggregate_votes:
        quorum = byzantine_quorum(cluster_size)
        certificate = 32 + 1 + quorum * CommitVote.WIRE_BYTES
        commits = n_clusters * (cluster_size - 1) * commit_wire
        results = (
            n_clusters
            * (cluster_size - 1)
            * (certificate + ENVELOPE_OVERHEAD)
        )
        votes = commits + results
    else:
        votes = (
            n_clusters
            * cluster_size
            * (cluster_size - 1)
            * commit_wire
        )
    return round(header_flood_bytes(n_nodes, degree) + bodies + prepares + votes)


def ici_advantage_factor(
    n_nodes: int,
    cluster_size: int,
    replication: int,
    body_bytes: int,
    degree: int = 8,
) -> float:
    """Full-replication dissemination bytes over ICI's, per block.

    Grows toward ``m/r`` as bodies dominate (large blocks): that is the
    paper's communication claim in its asymptotic form.
    """
    return full_replication_block_bytes(
        n_nodes, body_bytes, degree
    ) / ici_block_bytes(n_nodes, cluster_size, replication, body_bytes, degree)


__all__ = [
    "ANNOUNCE_PAYLOAD_BYTES",
    "REQUEST_PAYLOAD_BYTES",
    "header_flood_bytes",
    "full_replication_block_bytes",
    "ici_block_bytes",
    "ici_advantage_factor",
]
