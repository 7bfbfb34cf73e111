"""Storage accounting: per-node and network-wide byte reports.

These reports are the primary output of the paper's evaluation — E1, E2,
and E3 all reduce to "how many bytes does each node / the whole network
store under each strategy".  The module also provides the closed-form
models from DESIGN.md so measured simulator numbers can be cross-checked.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping

from repro.chain.chainstore import ChainStore


@dataclass(frozen=True)
class NodeStorageReport:
    """Bytes one node dedicates to the ledger."""

    node_id: int
    header_bytes: int
    body_bytes: int
    header_count: int
    body_count: int

    @property
    def total_bytes(self) -> int:
        """Total ledger bytes (headers + held bodies)."""
        return self.header_bytes + self.body_bytes


@dataclass(frozen=True)
class NetworkStorageReport:
    """Aggregate storage across a whole deployment."""

    per_node: tuple[NodeStorageReport, ...]

    @property
    def node_count(self) -> int:
        """Number of nodes in the report."""
        return len(self.per_node)

    @property
    def total_bytes(self) -> int:
        """Sum of every node's ledger bytes — the network's storage bill."""
        return sum(report.total_bytes for report in self.per_node)

    @property
    def max_node_bytes(self) -> int:
        """Largest single-node footprint."""
        return max(
            (report.total_bytes for report in self.per_node), default=0
        )

    @property
    def mean_node_bytes(self) -> float:
        """Average per-node footprint."""
        if not self.per_node:
            return 0.0
        return self.total_bytes / len(self.per_node)

    @property
    def stdev_node_bytes(self) -> float:
        """Population stdev of per-node footprints."""
        if len(self.per_node) < 2:
            return 0.0
        return statistics.pstdev(
            report.total_bytes for report in self.per_node
        )


def report_node(node_id: int, store: ChainStore) -> NodeStorageReport:
    """Snapshot one chain store's byte usage."""
    return NodeStorageReport(
        node_id=node_id,
        header_bytes=store.header_bytes,
        body_bytes=store.body_bytes,
        header_count=store.header_count,
        body_count=store.body_count,
    )


def report_network(
    stores: Mapping[int, ChainStore]
) -> NetworkStorageReport:
    """Snapshot every node's chain store."""
    return NetworkStorageReport(
        per_node=tuple(
            report_node(node_id, store)
            for node_id, store in sorted(stores.items())
        )
    )


# ------------------------------------------------------------ closed forms
def full_replication_total(n_nodes: int, ledger_bytes: int) -> int:
    """Network storage under full replication: every node stores D."""
    return n_nodes * ledger_bytes


def rapidchain_total(
    n_nodes: int, committee_size: int, ledger_bytes: int
) -> float:
    """Network storage under RapidChain committee sharding.

    ``k = N/g`` committees each store shard ``D/k`` on every member →
    network total ``g·D`` regardless of N.
    """
    if committee_size < 1 or committee_size > n_nodes:
        raise ValueError("committee size must be in [1, n_nodes]")
    return committee_size * ledger_bytes


def ici_total(
    n_nodes: int,
    cluster_size: int,
    replication: int,
    ledger_bytes: int,
) -> float:
    """Network storage under ICIStrategy.

    ``N/g`` clusters each store all of D with in-cluster replication r →
    network total ``(N/g)·r·D``.
    """
    if cluster_size < 1 or cluster_size > n_nodes:
        raise ValueError("cluster size must be in [1, n_nodes]")
    if replication < 1 or replication > cluster_size:
        raise ValueError("replication must be in [1, cluster_size]")
    n_clusters = n_nodes / cluster_size
    return n_clusters * replication * ledger_bytes


def ici_per_node(
    cluster_size: int, replication: int, ledger_bytes: int
) -> float:
    """Expected per-node body bytes under ICIStrategy: ``D·r/g``."""
    return ledger_bytes * replication / cluster_size


def rapidchain_per_node(
    n_nodes: int, committee_size: int, ledger_bytes: int
) -> float:
    """Per-node bytes under RapidChain: shard size ``D·g/N``."""
    return ledger_bytes * committee_size / n_nodes
