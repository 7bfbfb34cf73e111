"""Membership shrinkage: graceful departure and crash repair.

Two exits from a cluster:

* **Graceful departure** (:func:`start_departure`) — the leaver announces
  its exit; placement is recomputed over the surviving members, every
  block the change reassigns is copied to its new holder *before* the
  leaver is removed (the leaver itself may serve, it is still online), so
  the cluster never drops below ``r`` replicas of anything.
* **Crash repair** (:func:`start_crash_repair`) — the member is already
  gone; survivors re-replicate the crashed node's blocks from the
  remaining ``r−1`` replicas.  With ``r = 1`` the crashed node's blocks
  are unrecoverable inside the cluster and are reported as lost (this is
  exactly the trade-off experiment E7 sweeps — and the erasure extension
  removes).

A node departs once: a leave or crash repair of a node whose departure
is still in flight is refused, because the second session would take
over the first one's per-target sync slots and remove the node twice.

Both paths are message-driven: each new holder fetches its batch from
its source on the ``batch`` flow of the body-transfer service
(:mod:`repro.protocols.transfer`), the flow a join's bodies use too;
the sync engine hands each reply to the session registered for the
target.

Under a fault layer the request/response pair can be silently dropped, so
each target's transfer additionally runs on the repair engine's
:class:`~repro.protocols.reliability.RequestTracker`: a missed batch is
re-requested on deadline, fails over to alternate live sources, and — if
every retry is exhausted — the owed blocks are recorded in
``report.deferred_blocks`` and the departure completes degraded instead
of hanging; the anti-entropy sweep re-replicates the deferred blocks.
On clean networks the historical fire-and-forget path runs unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.metrics import DepartureReport
from repro.core.parity import RecoveryReport
from repro.crypto.hashing import Hash32
from repro.errors import ClusteringError, StorageError
from repro.node.clusternode import ClusterNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment


class _RepairSession:
    """Shared state for one membership-shrink repair."""

    def __init__(
        self,
        deployment: "ICIDeployment",
        report: DepartureReport,
        expected: dict[int, set[Hash32]],
        prune_plan: list[tuple[int, Hash32]],
    ) -> None:
        self.deployment = deployment
        self.report = report
        self.expected = expected  # target -> block hashes still owed
        self.prune_plan = prune_plan  # stale (holder, hash) post-repair
        # target -> tracker request id (fault-layer deployments only).
        self.request_ids: dict[int, int] = {}
        for target in expected:
            deployment.sync.departures[target] = self

    def on_bodies(
        self, node: ClusterNode, sender: int, blocks: Sequence
    ) -> None:
        """Owed bodies from a repair source, stored, reached a target."""
        owed = self.expected[node.node_id]
        for block in blocks:
            owed.discard(block.block_hash)
            self.report.blocks_transferred += 1
            self.report.bytes_moved += block.size_bytes
        if not owed:
            del self.expected[node.node_id]
            self.deployment.sync.departures.pop(node.node_id, None)
            self._resolve_tracking(node.node_id)
        self._maybe_finish()

    def on_degraded(self, target: int) -> None:
        """Every retry for one target's batch was lost: finish degraded.

        The owed blocks are deferred to the anti-entropy sweep rather than
        hanging the departure; their stale copies are kept (not pruned)
        because a stale replica may now be the only live copy.
        """
        owed = self.expected.pop(target, None)
        self.deployment.sync.departures.pop(target, None)
        self.request_ids.pop(target, None)
        if owed:
            self.report.deferred_blocks.extend(sorted(owed))
        self._maybe_finish()

    def _resolve_tracking(self, target: int) -> None:
        request_id = self.request_ids.pop(target, None)
        if request_id is not None:
            self.deployment.repair.tracker.resolve(request_id)

    def _maybe_finish(self) -> None:
        if self.expected or self.report.complete:
            return
        self.report.completed_at = self.deployment.network.now
        deferred = set(self.report.deferred_blocks)
        for holder, block_hash in self.prune_plan:
            if block_hash in deferred:
                continue  # stale copy may be the last live replica
            node = self.deployment.nodes.get(holder)
            if node is not None:
                node.unassign_body(block_hash)
        _remove_member(self.deployment, self.report.node_id)


def start_departure(
    deployment: "ICIDeployment", node_id: int
) -> DepartureReport:
    """Begin a graceful exit; drive the clock until ``report.complete``.

    Raises:
        ClusteringError: when the node is unknown, already departing, or
            its cluster would fall below the replication factor.
        StorageError: when a block's only live copy sits on an offline
            node (cannot happen during a graceful exit of an online node
            with r ≥ 1 unless other members are down too).
    """
    _refuse_if_departing(deployment, node_id)
    return _begin(deployment, node_id, graceful=True)


def start_crash_repair(
    deployment: "ICIDeployment", node_id: int
) -> DepartureReport:
    """Re-replicate after an (assumed permanent) crash of ``node_id``.

    The node is forced offline first; blocks whose every replica lived on
    offline members are recorded in ``report.lost_blocks``.  A node whose
    departure is in flight is refused (``ClusteringError``) and left as
    it is.
    """
    _refuse_if_departing(deployment, node_id)
    if node_id in deployment.nodes:
        deployment.network.set_online(node_id, False)
    return _begin(deployment, node_id, graceful=False)


def _refuse_if_departing(deployment: "ICIDeployment", node_id: int) -> None:
    for report in deployment.metrics.departures:
        if report.node_id == node_id and not report.complete:
            raise ClusteringError(f"node {node_id} is already departing")


def _begin(
    deployment: "ICIDeployment", node_id: int, graceful: bool
) -> DepartureReport:
    if node_id not in deployment.nodes:
        raise ClusteringError(f"node {node_id} is not deployed")
    cluster_id = deployment.clusters.cluster_of(node_id)
    old_members = deployment.clusters.members_of(cluster_id)
    new_members = tuple(m for m in old_members if m != node_id)
    if len(new_members) < deployment.config.replication:
        raise ClusteringError(
            "departure would leave fewer members than the replication "
            "factor"
        )

    report = DepartureReport(
        node_id=node_id,
        cluster_id=cluster_id,
        started_at=deployment.network.now,
        graceful=graceful,
    )
    deployment.metrics.departures.append(report)

    transfers, lost, prune_plan = _plan(
        deployment, old_members, new_members, node_id
    )
    if lost and deployment.parity is not None:
        lost = _recover_from_parity(
            deployment, cluster_id, new_members, lost
        )
    report.lost_blocks.extend(lost)
    if not transfers:
        for holder, block_hash in prune_plan:
            node = deployment.nodes.get(holder)
            if node is not None:
                node.unassign_body(block_hash)
        report.completed_at = deployment.network.now
        _remove_member(deployment, node_id)
        return report

    expected: dict[int, set[Hash32]] = {}
    for (_source, target), hashes in transfers.items():
        expected.setdefault(target, set()).update(hashes)
    session = _RepairSession(deployment, report, expected, prune_plan)
    if deployment.network.faults is None:
        # Clean network: the historical fire-and-forget batches (delivery
        # is guaranteed, tracking would only add clock events).
        for (source, target), hashes in transfers.items():
            deployment.sync.request_batch(
                deployment.nodes[target], source, sorted(hashes)
            )
        return report
    for target in sorted(expected):
        _track_transfer(deployment, session, transfers, target, new_members)
    return report


def _track_transfer(
    deployment: "ICIDeployment",
    session: _RepairSession,
    transfers: dict[tuple[int, int], set[Hash32]],
    target: int,
    new_members: tuple[int, ...],
) -> None:
    """Run one target's batch on tracker deadlines with source failover.

    The plan leads with the planned sources for this target, then every
    other live surviving member (any of them may hold a replica the
    placement did not pick); each attempt re-requests whatever the target
    is *still* owed, so partially-delivered batches shrink on retry and
    a duplicate body, no longer owed, is dropped by the accept step.
    """
    preferred = sorted(
        {src for (src, tgt) in transfers if tgt == target}
    )
    alternates = [
        m
        for m in deployment.network.live_members(sorted(new_members))
        if m != target and m not in preferred
    ]
    repair = deployment.repair
    request_id = next(repair.request_ids)
    session.request_ids[target] = request_id

    def send(source: int, _request) -> None:
        owed = session.expected.get(target)
        requester = deployment.nodes.get(target)
        if owed and requester is not None:
            deployment.sync.request_batch(requester, source, sorted(owed))

    repair.tracker.begin(
        request_id,
        "sync_request",
        preferred + alternates,
        send,
        on_degraded=lambda _request: session.on_degraded(target),
    )


def _plan(
    deployment: "ICIDeployment",
    old_members: tuple[int, ...],
    new_members: tuple[int, ...],
    leaving: int,
) -> tuple[
    dict[tuple[int, int], set[Hash32]],
    list[Hash32],
    list[tuple[int, Hash32]],
]:
    """Repair orders for one departure.

    Returns ``(transfers, lost, prune_plan)``: batched copy orders keyed
    ``(source, target)``; blocks with no surviving online replica; and
    stale ``(holder, hash)`` copies to release once repair completes.
    Under the default rendezvous placement only the leaver's blocks move;
    under modulo/round-robin placement the whole cluster reshuffles and
    every reassignment is covered here.
    """
    transfers: dict[tuple[int, int], set[Hash32]] = {}
    lost: list[Hash32] = []
    prune_plan: list[tuple[int, Hash32]] = []
    for header, old_holders, new_holders in deployment.placement.reassignments(
        deployment.ledger.store.iter_active_headers(),
        old_members,
        new_members,
        deployment.config.replication,
    ):
        gained = [m for m in new_holders if m not in old_holders]
        for stale in set(old_holders) - set(new_holders) - {leaving}:
            prune_plan.append((stale, header.block_hash))
        if not gained:
            continue
        source = _pick_source(deployment, old_holders, leaving)
        if source is None:
            if header.is_genesis:
                # Genesis is a hardcoded constant (as in Bitcoin): every
                # node regenerates it locally instead of fetching.
                genesis = deployment.ledger.store.body(header.block_hash)
                for target in gained:
                    deployment.nodes[target].assign_body(genesis)
            else:
                lost.append(header.block_hash)
            continue
        for target in gained:
            transfers.setdefault((source, target), set()).add(
                header.block_hash
            )
    return transfers, lost, prune_plan


def _recover_from_parity(
    deployment: "ICIDeployment",
    cluster_id: int,
    new_members: tuple[int, ...],
    lost: list[Hash32],
) -> list[Hash32]:
    """Rebuild otherwise-lost blocks via the parity extension.

    Recovered blocks are assigned to their new placement holders; blocks
    whose group lost a second chunk stay lost.
    """
    assert deployment.parity is not None
    recovery = RecoveryReport()
    still_lost: list[Hash32] = []
    for block_hash in lost:
        block = deployment.parity.recover_block(
            deployment, cluster_id, block_hash, recovery
        )
        if block is None:
            still_lost.append(block_hash)
            continue
        holders = deployment.placement.holders(
            block.header, new_members, deployment.config.replication
        )
        for holder in holders:
            deployment.nodes[holder].assign_body(block)
    return still_lost


def _pick_source(
    deployment: "ICIDeployment",
    old_holders: tuple[int, ...],
    leaving: int,
) -> int | None:
    """A live holder to copy from; survivors first, leaver last.

    Uses the fault layer's liveness view, so a stalled survivor is never
    chosen as a repair source (identical to the online check on clean
    networks).
    """
    survivors = [h for h in old_holders if h != leaving]
    live = deployment.network.live_members(survivors + [leaving])
    return live[0] if live else None


def _remove_member(deployment: "ICIDeployment", node_id: int) -> None:
    """Excise a member from membership, topology, and the fabric.

    Raises:
        StorageError: when the node is its cluster's last member.
    """
    clusters = deployment.clusters
    if clusters.members_of(clusters.cluster_of(node_id)) == (node_id,):
        raise StorageError(
            f"cannot remove node {node_id}: it is its cluster's last member"
        )
    clusters.remove_node(node_id)
    deployment.network.unregister(node_id)
    deployment.nodes.pop(node_id, None)
    deployment.public_keys.pop(node_id, None)
    deployment.install_topology()
