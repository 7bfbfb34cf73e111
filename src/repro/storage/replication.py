"""Replication health: availability analysis and repair planning.

With replication factor ``r`` inside a cluster, a block body survives as
long as at least one of its ``r`` holders is alive.  This module answers
the questions experiment E7 sweeps: given failures, which blocks are lost,
what is the survival probability, and what must be re-replicated when a
member departs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.chain.block import BlockHeader
from repro.errors import StorageError
from repro.storage.placement import PlacementPolicy


@dataclass(frozen=True)
class AvailabilityReport:
    """Survival outcome of a failure scenario within one cluster."""

    total_blocks: int
    lost_blocks: int
    at_risk_blocks: int  # exactly one live replica remains

    @property
    def survival_fraction(self) -> float:
        """Fraction of blocks still retrievable from the cluster."""
        if self.total_blocks == 0:
            return 1.0
        return 1.0 - self.lost_blocks / self.total_blocks

    @property
    def all_available(self) -> bool:
        """Did every block survive?"""
        return self.lost_blocks == 0


def availability_under_failures(
    headers: Sequence[BlockHeader],
    members: Sequence[int],
    replication: int,
    policy: PlacementPolicy,
    failed: set[int],
) -> AvailabilityReport:
    """Which blocks survive when ``failed`` members of a cluster crash.

    Placement is re-derived from the policy, so the report reflects exactly
    what the deterministic layout implies.
    """
    lost = 0
    at_risk = 0
    for header in headers:
        holders = policy.holders(header, members, replication)
        alive = [holder for holder in holders if holder not in failed]
        if not alive:
            lost += 1
        elif len(alive) == 1:
            at_risk += 1
    return AvailabilityReport(
        total_blocks=len(headers), lost_blocks=lost, at_risk_blocks=at_risk
    )


def analytic_block_survival(
    cluster_size: int, replication: int, failure_probability: float
) -> float:
    """Closed-form P(block survives) with independent member failures.

    A block is lost only when **all** ``r`` of its holders fail:
    ``P(survive) = 1 - p^r``.  E7 checks simulated results against this.
    """
    if not 0.0 <= failure_probability <= 1.0:
        raise StorageError("failure probability must be in [0, 1]")
    if replication < 1 or replication > cluster_size:
        raise StorageError("replication must be in [1, cluster_size]")
    return 1.0 - failure_probability**replication


def analytic_ledger_survival(
    n_blocks: int,
    cluster_size: int,
    replication: int,
    failure_probability: float,
) -> float:
    """P(every one of ``n_blocks`` survives), treating blocks independently.

    An approximation (placements share holders), but tight for
    ``n_blocks >> cluster_size``; the property tests bound the gap.
    """
    per_block = analytic_block_survival(
        cluster_size, replication, failure_probability
    )
    return per_block**n_blocks


@dataclass(frozen=True)
class RepairPlan:
    """Blocks that must be copied after a membership change.

    Attributes:
        transfers: ``(block_hash, source_node, target_node)`` copy orders.
        bytes_moved: total body bytes the plan transfers.
    """

    transfers: tuple[tuple[bytes, int, int], ...]
    bytes_moved: int

    @property
    def transfer_count(self) -> int:
        """Number of copy orders in the plan."""
        return len(self.transfers)


def plan_repair_after_departure(
    headers: Sequence[BlockHeader],
    body_bytes: Callable[[bytes], int],
    old_members: Sequence[int],
    departed: int,
    replication: int,
    policy: PlacementPolicy,
) -> RepairPlan:
    """Plan the copies needed when ``departed`` leaves a cluster.

    For every block, placement is recomputed over the surviving member
    list.  Any member that newly becomes a holder must fetch the body from
    a surviving old holder (preferring one that keeps the block under the
    new placement, falling back to any old holder still alive).

    Raises:
        StorageError: when a block had all replicas on the departed node
            (unrecoverable without erasure coding), or when the departed
            node is not a member.
    """
    if departed not in old_members:
        raise StorageError(f"node {departed} is not a cluster member")
    new_members = tuple(m for m in old_members if m != departed)
    if replication > len(new_members):
        raise StorageError(
            "departure leaves fewer members than the replication factor"
        )
    transfers: list[tuple[bytes, int, int]] = []
    bytes_moved = 0
    for header, old, new in policy.reassignments(
        headers, old_members, new_members, replication
    ):
        old_holders, new_holders = set(old), set(new)
        survivors = old_holders - {departed}
        gained = new_holders - old_holders
        if not gained:
            continue
        if not survivors:
            raise StorageError(
                f"block {header.block_hash.hex()[:12]}… lost all replicas"
            )
        source = min(survivors & new_holders, default=min(survivors))
        for target in sorted(gained):
            transfers.append((header.block_hash, source, target))
            bytes_moved += body_bytes(header.block_hash)
    return RepairPlan(
        transfers=tuple(transfers), bytes_moved=bytes_moved
    )


def expected_repair_fraction(
    cluster_size: int, replication: int
) -> float:
    """Expected fraction of blocks needing repair when one member leaves.

    Under uniform placement each member holds ``r/m`` of the blocks, so a
    departure touches that fraction in expectation.
    """
    if cluster_size < 1:
        raise StorageError("cluster size must be positive")
    return min(1.0, replication / cluster_size)


def sample_failure_sets(
    members: Sequence[int],
    n_failures: int,
    n_samples: int,
    seed: int = 0,
) -> Iterable[set[int]]:
    """Deterministic random failure sets for Monte-Carlo availability runs."""
    import random

    if n_failures > len(members):
        raise StorageError("cannot fail more members than exist")
    rng = random.Random(seed)
    member_list = list(members)
    for _ in range(n_samples):
        yield set(rng.sample(member_list, n_failures))


def binomial_failure_probability(
    cluster_size: int, replication: int, n_failures: int
) -> float:
    """Exact P(a given block is lost | exactly ``n_failures`` members fail).

    Hypergeometric: all ``r`` holders must be inside the failed set:
    ``C(m-r, f-r) / C(m, f)`` for ``f >= r`` else 0.
    """
    if n_failures < replication:
        return 0.0
    return math.comb(cluster_size - replication, n_failures - replication) / math.comb(
        cluster_size, n_failures
    )
