"""Replication health: availability under member failures.

With replication factor ``r`` inside a cluster, a block body survives as
long as at least one of its ``r`` holders is alive.  This module answers
the questions experiment E7 sweeps: given failures, which blocks are lost
and what is the survival probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.chain.block import BlockHeader
from repro.errors import StorageError
from repro.storage.placement import PlacementPolicy


@dataclass(frozen=True)
class AvailabilityReport:
    """Survival outcome of a failure scenario within one cluster."""

    total_blocks: int
    lost_blocks: int
    at_risk_blocks: int  # exactly one live replica remains


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
