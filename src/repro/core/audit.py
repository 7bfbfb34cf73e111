"""The ledger audit: who holds what, and is every floor met.

Every guarantee this repro checks — the paper's "each cluster can
reconstruct the whole ledger" plus the replica, per-tier, coded and
zone-diversity floors added on top — is a question about one table:
for each **(cluster, active block)** cell, which live members hold the
body (or a chunk of it) and how many copies the block is owed.
:func:`holdings` walks that table once, reading the opt-in features
(``replication_planner``, ``archival``, ``domains``) off the deployment
itself, so an audit senses whatever combination is enabled.  The four
answers are thin predicates over the rows:

* :func:`cluster_integrity` — every block is on some member's disk *or*
  decodable from ≥ ``k`` live chunks;
* :func:`floor_met` — every block has ``min(target, live)`` live
  replicas (archived blocks: the coded floor), or the shed-only variant
  a bad *shed* alone could break;
* :func:`diversity_met` — every block's live copies span the zones its
  floor and the surviving topology allow;
* :func:`uncovered_pairs` — how many cells have no live copy right now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.storage import coded

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.block import BlockHeader
    from repro.core.icistrategy import ICIDeployment
    from repro.net.domains import FailureDomainMap
    from repro.storage.coded import ArchivalTier


@dataclass(frozen=True)
class Holding:
    """One (cluster, active block) cell of the holdings table."""

    cluster_id: int
    header: "BlockHeader"
    #: The cluster's live members (the fault layer's view).
    live: tuple[int, ...]
    #: Live members storing the full body.
    holders: tuple[int, ...]
    #: Some member, live or not, has the body on disk (a crashed node
    #: keeps its disk, so the cluster still *holds* the block).
    held: bool
    #: Replicas owed: base ``r`` for genesis and fixed-``r`` runs, else
    #: the planner's per-tier target.
    target: int
    #: The archival tier, when this cluster keeps the block coded.
    tier: "ArchivalTier | None"

    @property
    def floor(self) -> int:
        """Live replicas owed right now: ``min(target, live)``."""
        return min(self.target, len(self.live))

    @property
    def decodable(self) -> bool:
        """Archived here with ≥ ``k`` chunks on live holders."""
        return self.tier is not None and self.tier.can_reconstruct(
            self.cluster_id, self.header.block_hash
        )

    @property
    def chunk_holders(self) -> list[int]:
        """Live members holding chunks of this (archived) block."""
        return self.tier.live_chunk_holders(
            self.cluster_id, self.header.block_hash
        )


def holdings(
    deployment: "ICIDeployment", cluster_id: int | None = None
) -> Iterator[Holding]:
    """Walk the holdings table (one cluster's rows with ``cluster_id``)."""
    planner = deployment.replication_planner
    tier = deployment.archival
    base = deployment.config.replication
    nodes = deployment.nodes
    headers = list(deployment.ledger.store.iter_active_headers())
    if cluster_id is None:
        clusters = [
            (view.cluster_id, view.members)
            for view in deployment.clusters.views()
        ]
    else:
        clusters = [(cluster_id, deployment.clusters.members_of(cluster_id))]
    for cluster, members in clusters:
        live = tuple(deployment.network.live_members(sorted(members)))
        offline = [m for m in members if m not in live]
        for header in headers:
            block_hash = header.block_hash
            holders = tuple(
                m for m in live if nodes[m].store.has_body(block_hash)
            )
            yield Holding(
                cluster_id=cluster,
                header=header,
                live=live,
                holders=holders,
                held=bool(holders)
                or any(nodes[m].store.has_body(block_hash) for m in offline),
                target=(
                    base
                    if planner is None or header.is_genesis
                    else planner.target_for(block_hash)
                ),
                tier=(
                    tier
                    if tier is not None
                    and tier.is_archived(cluster, block_hash)
                    else None
                ),
            )


def cluster_integrity(deployment: "ICIDeployment", cluster_id: int) -> bool:
    """Can this cluster produce every active body, held or decoded?"""
    return all(
        row.held or row.decodable
        for row in holdings(deployment, cluster_id)
    )


def floor_met(deployment: "ICIDeployment", shed_only: bool = False) -> bool:
    """Is every block at or above its floor in every cluster?

    Strict (the end-of-run audit the anti-entropy sweep converges to):
    ``min(target, live)`` live replicas per block, where the target
    follows the block's heat tier on adaptive runs; an archived block
    must instead hold the **coded floor** — ≥ ``k`` live chunks, never
    two on one member.  ``shed_only`` is the mid-convergence variant:
    genesis is skipped and the floor is capped at the base ``r``, so a
    hot target not yet filled (a deficit, the repair side's job) is not
    a breach — only a shed that cut too deep is.
    """
    cap = deployment.config.replication
    for row in holdings(deployment):
        if not row.live or (shed_only and row.header.is_genesis):
            continue
        if row.tier is not None:
            if not row.tier.coded_floor_ok(
                row.cluster_id, row.header.block_hash
            ):
                return False
            continue
        floor = min(row.floor, cap) if shed_only else row.floor
        if len(row.holders) < floor:
            return False
    return True


def diversity_met(
    deployment: "ICIDeployment", domains: "FailureDomainMap | None" = None
) -> bool:
    """Does every cluster spread every block across its live zones?

    Per cluster, every non-genesis block's live holders must span
    ``min(floor, live-zone count)`` distinct zones; archived blocks
    check their live **chunk** holders against ``min(k, live-zone
    count)`` — chunk placement rides the same spread-aware policy.
    Genesis is exempt: a hardcoded constant every node regenerates
    locally, so zone spread buys it nothing.  Judged against the
    deployment's own map, or an explicit one (the physical topology a
    domain-oblivious arm is blind to); with neither it trivially holds.
    """
    if domains is None:
        domains = deployment.domains
    if domains is None:
        return True
    for row in holdings(deployment):
        if row.header.is_genesis or not row.live:
            continue
        live_zones = len(domains.zones_of(row.live))
        if row.tier is not None:
            copies = row.chunk_holders
            need = coded.DATA_CHUNKS
        else:
            copies, need = row.holders, row.floor
        if len(domains.zones_of(copies)) < min(need, live_zones):
            return False
    return True


def uncovered_pairs(deployment: "ICIDeployment") -> int:
    """Non-genesis (cluster, block) cells with no live copy right now."""
    return sum(
        1
        for row in holdings(deployment)
        if not (row.header.is_genesis or row.holders or row.decodable)
    )
