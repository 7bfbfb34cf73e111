"""Bootstrap: how a brand-new node joins an ICIStrategy network.

The paper's third headline claim is that ICIStrategy "greatly saves the
overhead of bootstrapping": a joiner downloads every **header** (cheap,
84 bytes each) plus only the block **bodies** placement assigns to it —
roughly ``D·r/(m+1)`` bytes instead of the full ledger ``D``.

Protocol (message-driven over the simulator):

1. The joiner is added to the smallest cluster; the overlay is rebuilt.
2. Joiner → contact (a cluster-mate): ``SYNC_REQUEST("headers")``.
3. Contact → joiner: ``SYNC_HEADERS`` (all active headers + the optional
   UTXO snapshot, charged at ``config.state_snapshot_bytes``).
4. The joiner recomputes placement over the *new* member list, groups its
   newly-assigned blocks by a surviving old holder, and fetches one batch
   per source on the ``batch`` flow of the body-transfer service
   (:mod:`repro.protocols.transfer`).
5. When the last batch lands the join is complete and displaced old
   holders prune the bodies the joiner took over (never before — no
   availability gap during the join).

Reassignments *between existing members* (rare under the default
rendezvous placement, catastrophic under modulo placement — the E9
ablation) are applied as instantaneous background repair with their bytes
accounted on the report, keeping the joiner's critical path honest while
not multiplying simulation cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.chain.block import HEADER_SIZE, BlockHeader
from repro.chain.utxo import UtxoSet
from repro.clustering.coordinates import centroid
from repro.core.metrics import BootstrapReport
from repro.crypto.hashing import Hash32
from repro.errors import BootstrapError
from repro.net.latency import CoordinateLatency
from repro.net.message import MessageKind
from repro.node.clusternode import ClusterNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment


class BootstrapState:
    """One in-flight join: the session ``SyncEngine`` routes its replies to."""

    def __init__(
        self,
        deployment: "ICIDeployment",
        report: BootstrapReport,
        contact: int,
        old_members: tuple[int, ...],
    ) -> None:
        self.deployment = deployment
        self.report = report
        self.contact = contact
        self.old_members = old_members
        self.headers_received = False
        self.pending_sources: set[int] = set()
        self.expected_bodies: set[Hash32] = set()
        # What was asked of each source, to detect undeliverable bodies.
        self.requested_from: dict[int, set[Hash32]] = {}
        # Displaced copies released only after the joiner confirmed —
        # pruning earlier could erase the very replica being copied from.
        self.prune_plan: list[tuple[int, Hash32]] = []
        # The decoded UTXO snapshot when real fast-sync is enabled.
        self.utxo_snapshot = None

    def on_headers(
        self, headers: Sequence[BlockHeader], snapshot: bytes = b""
    ) -> None:
        """Phase 2: the joiner indexed every header; plan its body downloads."""
        if self.headers_received:
            return  # duplicate/retried SYNC_HEADERS under faults
        self.headers_received = True
        deployment = self.deployment
        report = self.report
        node = deployment.nodes[report.node_id]
        assert isinstance(node, ClusterNode)
        node.store.add_chain(headers)
        for header in headers:
            node.finalize(header.block_hash)
        report.header_bytes = HEADER_SIZE * len(headers)
        report.snapshot_bytes = deployment.config.state_snapshot_bytes
        if snapshot:
            # Real fast-sync: decode and adopt the served UTXO snapshot.
            report.snapshot_bytes += len(snapshot)
            self.utxo_snapshot = UtxoSet.deserialize_snapshot(snapshot)

        # The joiner is in no old holder set, so every block it wins (and
        # every peer-to-peer move) is among the blocks whose holders change.
        new_members = deployment.clusters.members_of(node.cluster_id)
        by_source: dict[int, list[Hash32]] = {}
        for header, old_holders, new_holders in deployment.placement.reassignments(
            headers, self.old_members, new_members, deployment.config.replication
        ):
            _apply_peer_migration(
                deployment, self, header, old_holders, new_holders
            )
            if node.node_id not in new_holders:
                continue
            source = _pick_online_holder(deployment, old_holders)
            if source is None:
                if deployment.network.faults is not None:
                    # Fault-layer run: degrade (the join's watch may
                    # still refetch it from a recovered replica) instead
                    # of aborting the whole join.
                    report.bodies_unavailable.append(header.block_hash)
                    continue
                raise BootstrapError(
                    f"no online holder for block "
                    f"{header.block_hash.hex()[:12]}… during join"
                )
            by_source.setdefault(source, []).append(header.block_hash)
            self.expected_bodies.add(header.block_hash)

        self.request_bodies(node, by_source)
        _maybe_complete(deployment, self)

    def request_bodies(
        self,
        node: ClusterNode,
        by_source: dict[int, list[Hash32]],
        retry: bool = False,
    ) -> None:
        """Ask each source for its batch, in ``by_source`` order."""
        self.pending_sources = set(by_source)
        self.requested_from = {
            source: set(wanted) for source, wanted in by_source.items()
        }
        for source, wanted in by_source.items():
            if retry:
                self.deployment.router.note_retry("sync_request")
            self.deployment.sync.request_batch(node, source, wanted)

    def on_bodies(
        self, node: ClusterNode, source: int, blocks: Sequence
    ) -> None:
        """Phase 3: a source's batch of expected bodies, stored, arrived.

        A duplicate or late body (fault-layer retries re-request batches)
        is no longer expected, so the accept step has dropped it.
        """
        report = self.report
        delivered: set[Hash32] = set()
        for block in blocks:
            node.finalize(block.block_hash)
            delivered.add(block.block_hash)
            self.expected_bodies.discard(block.block_hash)
            report.body_bytes += block.size_bytes
            report.bodies_fetched += 1
        # Bodies the source was asked for but could not serve are lost in
        # the cluster already (e.g. an earlier r=1 crash) — the join must
        # not hang on them; record and move on.
        for missing in self.requested_from.get(source, set()) - delivered:
            if missing in self.expected_bodies:
                self.expected_bodies.discard(missing)
                report.bodies_unavailable.append(missing)
        self.pending_sources.discard(source)
        _maybe_complete(self.deployment, self)


def start_bootstrap(deployment: "ICIDeployment") -> BootstrapReport:
    """Admit a new node and kick off its synchronization.

    Returns the live report; drive the network until ``report.complete``.

    Raises:
        BootstrapError: when no online contact exists in the target cluster.
    """
    new_id = max(deployment.nodes) + 1
    cluster_id = deployment.clusters.smallest_cluster()
    old_members = deployment.clusters.members_of(cluster_id)
    contact = _pick_contact(deployment, old_members)

    _extend_coordinates(deployment, cluster_id, old_members)
    deployment.clusters.add_node(new_id, cluster_id)
    node = ClusterNode(
        new_id,
        deployment.network,
        cluster_id=cluster_id,
        limits=deployment.config.limits,
    )
    node.attach(deployment)
    deployment.nodes[new_id] = node
    deployment.public_keys[new_id] = node.keypair.public_key
    deployment.install_topology()

    report = BootstrapReport(
        node_id=new_id,
        cluster_id=cluster_id,
        started_at=deployment.network.now,
    )
    deployment.metrics.bootstraps.append(report)
    state = BootstrapState(deployment, report, contact, old_members)
    deployment.sync.bootstraps[new_id] = state

    node.send(
        MessageKind.SYNC_REQUEST,
        contact,
        ("headers",),
        64,
    )
    # No-op on clean networks; under faults, a watch guards the join.
    watch_bootstrap(deployment, new_id)
    return report


def _maybe_complete(
    deployment: "ICIDeployment", state: BootstrapState
) -> None:
    if state.pending_sources or state.expected_bodies:
        return
    if state.report.completed_at is not None:
        return
    state.report.completed_at = deployment.network.now
    for member, block_hash in state.prune_plan:
        node = deployment.nodes.get(member)
        if node is not None:
            state.report.migration_bytes_freed += node.unassign_body(
                block_hash
            )
    _prune_displaced_holders(deployment, state)
    deployment.sync.bootstraps.pop(state.report.node_id, None)


# ------------------------------------------------------- the join's watch
def watch_bootstrap(deployment: "ICIDeployment", node_id: int) -> None:
    """Under faults, guard one join until it completes.

    Each firing re-requests whatever phase stalled — headers from
    an alternate live contact, bodies from alternate live replicas —
    and, at the attempts cap, strands the unreachable bodies as
    ``bodies_unavailable`` so the join degrades instead of hanging.
    Never started on clean networks.
    """
    if deployment.network.faults is None:
        return
    deployment.reliability.watch(
        "sync_request",
        waiting=lambda: _joining(deployment, node_id),
        kick=lambda attempt: _rerequest(deployment, node_id, attempt),
        exhausted=lambda: _strand(deployment, node_id),
    )


def _joining(deployment: "ICIDeployment", node_id: int) -> bool:
    """Still mid-join (not completed, and the joiner has not left)."""
    return (
        node_id in deployment.sync.bootstraps
        and deployment.network.faults is not None
        and node_id in deployment.nodes
    )


def _rerequest(deployment: "ICIDeployment", node_id: int, attempt: int) -> bool:
    """Re-drive the stalled phase; true when that completed the join."""
    bootstraps = deployment.sync.bootstraps
    state = bootstraps[node_id]
    node = deployment.nodes[node_id]
    if not state.headers_received:
        candidates = deployment.network.live_members(state.old_members)
        if candidates:
            state.contact = candidates[attempt % len(candidates)]
            deployment.router.note_retry("sync_request")
            node.send(
                MessageKind.SYNC_REQUEST, state.contact, ("headers",), 64
            )
    elif state.expected_bodies:
        _replan_bodies(deployment, state, node)
        _maybe_complete(deployment, state)
    return bootstraps.get(node_id) is not state


def _strand(deployment: "ICIDeployment", node_id: int) -> None:
    """Every retry spent: degrade the join rather than hang it."""
    state = deployment.sync.bootstraps[node_id]
    for missing in sorted(state.expected_bodies):
        state.report.bodies_unavailable.append(missing)
    state.expected_bodies.clear()
    state.pending_sources.clear()
    _maybe_complete(deployment, state)


def _replan_bodies(
    deployment: "ICIDeployment", state: BootstrapState, node: ClusterNode
) -> None:
    """Re-request outstanding bodies, failing over to live replicas."""
    faults = deployment.network.faults
    by_source: dict[int, list[Hash32]] = {}
    unservable: list[Hash32] = []
    for block_hash in sorted(state.expected_bodies):
        source = None
        for candidate in sorted(deployment.nodes):
            if candidate == node.node_id or not faults.is_live(candidate):
                continue
            peer = deployment.nodes[candidate]
            if peer.store.has_body(block_hash):
                source = candidate
                break
        if source is None:
            unservable.append(block_hash)
        else:
            by_source.setdefault(source, []).append(block_hash)
    for block_hash in unservable:
        state.expected_bodies.discard(block_hash)
        state.report.bodies_unavailable.append(block_hash)
    state.request_bodies(node, dict(sorted(by_source.items())), retry=True)


def _prune_displaced_holders(
    deployment: "ICIDeployment", state: BootstrapState
) -> None:
    """Old holders release the bodies the joiner now owns (post-confirm)."""
    node = deployment.nodes[state.report.node_id]
    assert isinstance(node, ClusterNode)
    new_members = deployment.clusters.members_of(node.cluster_id)
    for header, old_holders, new_holders in deployment.placement.reassignments(
        node.store.iter_active_headers(),
        state.old_members,
        new_members,
        deployment.config.replication,
    ):
        if node.node_id not in new_holders:
            continue
        for displaced in set(old_holders) - set(new_holders):
            # The displaced holder may have departed (or crashed out of
            # membership) while the bootstrap was in flight under churn.
            holder = deployment.nodes.get(displaced)
            if holder is None:
                continue
            state.report.migration_bytes_freed += holder.unassign_body(
                header.block_hash
            )


def _apply_peer_migration(
    deployment: "ICIDeployment",
    state: BootstrapState,
    header: BlockHeader,
    old_holders: tuple[int, ...],
    new_holders: tuple[int, ...],
) -> None:
    """Background repair for existing-member reassignments (accounted)."""
    joiner = state.report.node_id
    gained = [
        member
        for member in new_holders
        if member not in old_holders and member != joiner
    ]
    if not gained:
        return
    if not deployment.ledger.store.has_body(header.block_hash):
        return
    block = deployment.ledger.store.body(header.block_hash)
    for member in gained:
        deployment.nodes[member].assign_body(block)
    lost = [
        member
        for member in old_holders
        if member not in new_holders
    ]
    # Displaced holders prune only once the join completes — one of them
    # may be the source the joiner is fetching this very block from.
    replaced_by_peers = min(len(gained), len(lost))
    for member in lost[:replaced_by_peers]:
        state.prune_plan.append((member, header.block_hash))


def _pick_contact(
    deployment: "ICIDeployment", members: tuple[int, ...]
) -> int:
    # The fault layer's liveness view: identical to the online filter on
    # clean networks, but also skips stalled (unresponsive) peers.
    live = deployment.network.live_members(members)
    if live:
        return live[0]
    raise BootstrapError("target cluster has no online contact")


def _pick_online_holder(
    deployment: "ICIDeployment", holders: tuple[int, ...]
) -> int | None:
    live = deployment.network.live_members(holders)
    return live[0] if live else None


def _extend_coordinates(
    deployment: "ICIDeployment",
    cluster_id: int,
    members: tuple[int, ...],
) -> None:
    """Place the joiner near its cluster's centroid (coordinate latency)."""
    if deployment.coordinates is None:
        return
    cluster_points = [deployment.coordinates[m] for m in members]
    deployment.coordinates.append(centroid(cluster_points))
    if isinstance(deployment.network.latency, CoordinateLatency):
        deployment.network.latency = CoordinateLatency(deployment.coordinates)
