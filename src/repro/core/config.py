"""Configuration for an ICIStrategy deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ICIConfig:
    """Tunable knobs of the strategy.

    Attributes:
        n_clusters: how many clusters to form.
        replication: in-cluster copies of each block body (``r``).
        placement: placement policy name — ``"hash"`` (rendezvous hashing,
            the default), ``"modulo"``, ``"round_robin"``, or
            ``"capacity"``.
        clustering: formation algorithm name — ``"random"`` (default),
            ``"kmeans"``, or ``"latency"`` (the latter two need node
            coordinates).
        aggregate_votes: when ``True`` (default), commit votes flow through
            a per-block aggregator that broadcasts a quorum certificate —
            O(m) messages per cluster instead of the all-to-all O(m²).
        compact_blocks: disseminate bodies as header + txid list (à la
            BIP-152); holders rebuild the body from their mempools and
            fetch only the transactions they miss.  Effective when
            transactions were relayed beforehand
            (:meth:`~repro.sim.runner.ScenarioRunner.produce_blocks_via_relay`).
        prune_after_verify: non-holders drop bodies they fetched for
            validation once the cluster finalizes the block.
        verify_collaboratively: when ``False``, every member validates the
            full body itself (ablation; loses the CPU and traffic savings).
        inter_cluster_links: bridges per cluster pair in the overlay.
        parity_group_size: when ≥ 2, each cluster additionally stores one
            XOR parity chunk per that many consecutive blocks (the
            erasure extension), making any single lost body recoverable
            under r=1.  0 (default) disables parity.
        state_snapshot_bytes: flat size charged for the UTXO snapshot a
            joining node downloads during bootstrap (modelled cost).
        transfer_state_snapshot: when ``True``, bootstrap serves the
            contact's *actual* serialized UTXO set (69 bytes/entry) and
            charges its real size instead of the flat figure.
        limits: consensus limits shared by every node.
    """

    n_clusters: int = 4
    replication: int = 1
    placement: str = "hash"
    clustering: str = "random"
    aggregate_votes: bool = True
    compact_blocks: bool = False
    prune_after_verify: bool = True
    verify_collaboratively: bool = True
    inter_cluster_links: int = 2
    parity_group_size: int = 0
    state_snapshot_bytes: int = 0
    transfer_state_snapshot: bool = False
    #: Per-node storage capacity weights for ``placement="capacity"``
    #: (unlisted nodes weigh 1.0).  A weight-2 node attracts ~2x blocks.
    node_capacities: Mapping[int, float] = field(default_factory=dict)
    limits: ValidationLimits = field(default_factory=lambda: DEFAULT_LIMITS)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.placement not in ("hash", "modulo", "round_robin", "capacity"):
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}"
            )
        if self.clustering not in ("random", "kmeans", "latency"):
            raise ConfigurationError(
                f"unknown clustering algorithm {self.clustering!r}"
            )
        if self.inter_cluster_links < 0:
            raise ConfigurationError("inter_cluster_links must be >= 0")
        if self.parity_group_size < 0 or self.parity_group_size == 1:
            raise ConfigurationError(
                "parity_group_size must be 0 (disabled) or >= 2"
            )
        for node, capacity in self.node_capacities.items():
            if capacity <= 0:
                raise ConfigurationError(
                    f"capacity of node {node} must be positive"
                )
        if self.state_snapshot_bytes < 0:
            raise ConfigurationError("state_snapshot_bytes must be >= 0")

    def validate_for(self, n_nodes: int) -> None:
        """Check the config against a concrete network size.

        Raises:
            ConfigurationError: when clusters would be empty or smaller
                than the replication factor.
        """
        if self.n_clusters > n_nodes:
            raise ConfigurationError(
                f"{self.n_clusters} clusters need at least that many nodes "
                f"(got {n_nodes})"
            )
        min_cluster = n_nodes // self.n_clusters
        if self.replication > min_cluster:
            raise ConfigurationError(
                f"replication {self.replication} exceeds the minimum "
                f"cluster size {min_cluster}"
            )
