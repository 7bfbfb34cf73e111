"""Paper-scale storage-layout simulation (placement only, no messages).

The message-driven simulator honestly exercises protocols but tops out
around a few hundred nodes per run.  Storage layout, however, is a pure
function of (membership, placement policy, block sizes) — so this module
computes **exact per-node byte layouts at the paper's literal scale**
(N=1000, committees of 250, thousands of 1 MB blocks) in milliseconds,
letting E2 cross-check its closed forms against a real placement rather
than only against algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.chain.block import HEADER_SIZE, BlockHeader
from repro.clustering.algorithms import RandomBalancedClustering
from repro.clustering.membership import ClusterTable
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import ConfigurationError
from repro.storage.accounting import (
    NetworkStorageReport,
    NodeStorageReport,
)
from repro.storage.placement import PlacementPolicy, RendezvousPlacement


@dataclass(frozen=True)
class SyntheticBlock:
    """A block stand-in: header + body size, no transactions."""

    header: BlockHeader
    body_bytes: int


def synthetic_chain(
    n_blocks: int,
    mean_body_bytes: int = 1_000_000,
    jitter: float = 0.1,
    seed: int = 0,
) -> list[SyntheticBlock]:
    """A deterministic chain of sized block stand-ins.

    Body sizes are uniform in ``mean ± jitter·mean`` (real blocks vary);
    hashes chain properly so placement sees realistic entropy.
    """
    if n_blocks < 0:
        raise ConfigurationError("n_blocks must be >= 0")
    if not 0 <= jitter < 1:
        raise ConfigurationError("jitter must be in [0, 1)")
    rng = random.Random(seed)
    blocks: list[SyntheticBlock] = []
    prev = ZERO_HASH
    for height in range(n_blocks):
        header = BlockHeader(
            height=height,
            prev_hash=prev,
            merkle_root=sha256(f"root-{seed}-{height}".encode()),
            timestamp=float(height),
            nonce=height,
        )
        low = int(mean_body_bytes * (1 - jitter))
        high = int(mean_body_bytes * (1 + jitter))
        blocks.append(
            SyntheticBlock(
                header=header,
                body_bytes=rng.randint(low, max(high, low)),
            )
        )
        prev = header.block_hash
    return blocks


def ici_layout(
    clusters: ClusterTable,
    blocks: Sequence[SyntheticBlock],
    replication: int = 1,
    policy: PlacementPolicy | None = None,
) -> NetworkStorageReport:
    """Exact per-node layout under ICIStrategy placement."""
    policy = policy or RendezvousPlacement()
    body_bytes = {node: 0 for node in clusters.all_nodes()}
    body_count = {node: 0 for node in clusters.all_nodes()}
    for view in clusters.views():
        for block in blocks:
            for holder in policy.holders(
                block.header, view.members, replication
            ):
                body_bytes[holder] += block.body_bytes
                body_count[holder] += 1
    return _report(clusters, blocks, body_bytes, body_count)


def rapidchain_layout(
    committees: ClusterTable,
    blocks: Sequence[SyntheticBlock],
) -> NetworkStorageReport:
    """Exact per-node layout under RapidChain committee sharding."""
    body_bytes = {node: 0 for node in committees.all_nodes()}
    body_count = {node: 0 for node in committees.all_nodes()}
    k = committees.cluster_count
    for block in blocks:
        home = int.from_bytes(block.header.block_hash[:8], "big") % k
        for member in committees.members_of(home):
            body_bytes[member] += block.body_bytes
            body_count[member] += 1
    return _report(committees, blocks, body_bytes, body_count)


def balanced_clusters(
    n_nodes: int, n_groups: int, seed: int = 0
) -> ClusterTable:
    """Convenience: random balanced groups for layout studies."""
    return RandomBalancedClustering(seed=seed).form_clusters(
        list(range(n_nodes)), n_groups
    )


def _report(
    clusters: ClusterTable,
    blocks: Sequence[SyntheticBlock],
    body_bytes: dict[int, int],
    body_count: dict[int, int],
) -> NetworkStorageReport:
    headers = HEADER_SIZE * len(blocks)
    return NetworkStorageReport(
        per_node=tuple(
            NodeStorageReport(
                node_id=node,
                header_bytes=headers,
                body_bytes=body_bytes[node],
                header_count=len(blocks),
                body_count=body_count[node],
            )
            for node in clusters.all_nodes()
        )
    )
