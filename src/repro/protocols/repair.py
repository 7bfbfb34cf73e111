"""Anti-entropy repair engine: the self-healing backstop.

The event-driven repair paths (:mod:`repro.core.departure`, the
survivors' re-replication after a detected crash) fix damage they *know
about* — an announced leave, a detected crash.  Under the fault layer a cluster can silently fall below
its replication floor anyway: a ``SYNC_BODIES`` batch dropped mid-repair,
a source crashing between request and response, a departure straddling a
partition.  This engine closes that gap the way LightChain's DHT
maintenance does — by **periodically reconciling what each cluster
actually holds against what it should hold**, regardless of why the two
diverged.

One sweep (per :attr:`AntiEntropyEngine.cadence` virtual seconds):

1. Per cluster, the lowest-id live member acts as coordinator and pulls a
   **coverage digest** from every other live member — a compact summary
   of the block hashes whose bodies the member holds (modeled at
   :data:`DIGEST_HASH_BYTES` per hash, the size of a truncated-hash
   summary on a real wire).  Digest requests run on the shared
   :class:`~repro.protocols.reliability.RequestTracker`; a member whose
   every retry is lost simply contributes empty coverage.
2. The coordinator-side analysis walks the canonical chain (the
   simulator's oracle ledger, the same shortcut ``reconcile`` and the
   integrity audit use) and flags every block with fewer than
   ``min(replication, live_cluster_size)`` live replicas.
3. Each deficit schedules an **idempotent** re-replication: the chosen
   target pulls the body through a tracked ``REPAIR_REQUEST`` with
   capped-backoff retries and failover across every live in-cluster
   holder, then up to two out-of-cluster holders.  A ``(block, target)``
   pair already in flight is never double-requested, and
   :meth:`~repro.node.clusternode.ClusterNode.assign_body` is itself
   idempotent, so overlapping sweeps converge instead of amplifying.
4. A block with **no live replica anywhere** (r=1 after a crash) is
   recorded as unrecoverable — a :class:`DegradedResult`-style outcome,
   not a hang — and re-examined next sweep in case a holder recovers.

The engine is installed on every ICI deployment (so the router owns its
message kinds) but **dormant until** :meth:`AntiEntropyEngine.start`:
with no sweep scheduled it sends nothing, schedules nothing, and touches
no clock state, keeping fault-free simulated metrics byte-identical to
the committed baseline.

**Adaptive replication** (opt-in, :mod:`repro.storage.heat`): with a
:class:`~repro.storage.heat.ReplicationPlanner` attached to the
deployment, each sweep first refreshes the heat classification, then
analyzes against *per-block* targets instead of the fixed ``r`` — and
gains the inverse of repair: **shedding**.  A block observed above its
tier target drops surplus copies (local deletes; no wire cost beyond
the digests that discovered them), keeping exactly the placement
function's top-``target`` members.  Shedding is idempotent (a second
sweep over the same coverage finds nothing to drop) and guarded: it
never leaves fewer than ``min(target, live)`` live copies, never fewer
than one (the last in-cluster copy is also that cluster's contribution
to cross-cluster coverage), skips blocks with an in-flight repair, and
recounts actual live holders after every drop — a recount below the
floor increments the planner's ``floor_violations`` counter, which the
endurance audit pins at zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.chain.block import Block, BlockHeader
from repro.crypto.hashing import Hash32
from repro.errors import ClusteringError, ConfigurationError
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.obs.hooks import record_cluster_storage
from repro.obs.tracer import proto_track
from repro.protocols.reliability import (
    PendingRequest,
    RequestTracker,
    RetryPolicy,
)
from repro.protocols.router import MessageRouter, ProtocolEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.simclock import EventHandle

#: Modeled wire cost of one digest request (control payload).
DIGEST_REQUEST_BYTES = 24
#: Modeled bytes per block hash in a coverage digest (truncated summary).
DIGEST_HASH_BYTES = 8
#: Modeled wire cost of one re-replication pull (hash + framing).
REPAIR_REQUEST_BYTES = 72
#: Default sweep interval, virtual seconds.
DEFAULT_CADENCE = 5.0
#: Out-of-cluster holders appended to a repair plan when the cluster
#: itself has no live replica (mirrors the query engine's failover tail).
EXTERNAL_SOURCE_LIMIT = 2

#: Pacing for digest and re-replication requests: capped 1.5× backoff.
REPAIR_RETRY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=1.5, max_timeout=12.0, rounds=2
)


@dataclass
class RepairStats:
    """What the anti-entropy engine detected and fixed (deterministic)."""

    sweeps: int = 0
    digests_requested: int = 0
    digests_received: int = 0
    digest_failures: int = 0
    under_replicated: int = 0
    repairs_scheduled: int = 0
    blocks_re_replicated: int = 0
    bytes_re_replicated: int = 0
    repairs_degraded: int = 0
    unrecoverable: int = 0


class _DigestSession:
    """One sweep's coverage collection for one cluster."""

    __slots__ = (
        "cluster_id",
        "coordinator",
        "pending",
        "coverage",
        "unresponsive",
    )

    def __init__(self, cluster_id: int, coordinator: int) -> None:
        self.cluster_id = cluster_id
        self.coordinator = coordinator
        self.pending: set[int] = set()
        # block hash -> responsive members whose digest covered it.
        self.coverage: dict[Hash32, set[int]] = {}
        # Members whose digest was lost after every retry.  Their
        # coverage is *unknown*, not empty: analysis excludes them
        # entirely (floor, holders, and targets) rather than invent
        # deficits a dropped digest would otherwise imply.
        self.unresponsive: set[int] = set()

    def absorb(self, member: int, hashes: Sequence[Hash32]) -> None:
        """Fold one member's digest into the coverage map."""
        self.pending.discard(member)
        for block_hash in hashes:
            self.coverage.setdefault(block_hash, set()).add(member)


class AntiEntropyEngine(ProtocolEngine):
    """Periodic coverage reconciliation + tracked re-replication.

    Also the home of the shared :attr:`tracker` the hardened departure
    path (:mod:`repro.core.departure`) schedules its deadline-driven
    repair requests on, so every repair flow reports retries/timeouts/
    degradations through one surface.
    """

    name = "repair"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        self.stats = RepairStats()
        self.cadence = DEFAULT_CADENCE
        self.active = False
        self.repair_times: list[float] = []
        self.tracker = RequestTracker(
            deployment.network.clock,
            deployment.router,
            policy=REPAIR_RETRY_POLICY,
        )
        #: The shared tracker's id sequence: digest, re-replication and
        #: departure-repair requests all draw from it.
        self.request_ids = itertools.count(1)
        self._inflight: set[tuple[Hash32, int]] = set()
        # Diversity repairs: blocks at their replica floor whose copies
        # nonetheless shared a zone, fixed by an extra spread-restoring
        # copy.  A plain attribute (NOT a RepairStats field): the stats
        # dict feeds endurance signatures, and domain-oblivious runs
        # must stay byte-identical.
        self.diversity_repairs = 0
        # (cluster, block hash) -> virtual time the deficit was first seen
        # (cleared when a later sweep finds the floor restored).
        self._first_detected: dict[tuple[int, Hash32], float] = {}
        self._unrecoverable: set[tuple[int, Hash32]] = set()
        self._sweep_handle: "EventHandle | None" = None
        self._track = proto_track("repair")

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.REPAIR_DIGEST_REQUEST,
            self._on_digest_request,
            owner=self.name,
        )
        router.register(
            MessageKind.REPAIR_DIGEST, self._on_digest, owner=self.name
        )
        router.register(
            MessageKind.REPAIR_REQUEST,
            self._on_repair_request,
            owner=self.name,
        )
        router.register(
            MessageKind.REPAIR_BODIES,
            self._on_repair_bodies,
            owner=self.name,
        )

    # ------------------------------------------------------------ lifecycle
    def start(self, cadence: float | None = None) -> None:
        """Begin sweeping every ``cadence`` virtual seconds.

        While active each sweep schedules the next, so drivers must
        advance the clock with ``run_for`` windows (a full ``run()``
        drain would chase the self-rescheduling sweep forever) and call
        :meth:`stop` before draining to quiescence.
        """
        if cadence is not None:
            if cadence <= 0:
                raise ConfigurationError("repair cadence must be > 0")
            self.cadence = cadence
        if self.active:
            return
        self.active = True
        self._sweep_handle = self.network.clock.schedule(
            self.cadence, self._sweep
        )

    def stop(self) -> None:
        """Stop sweeping (in-flight tracked requests still resolve)."""
        self.active = False
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    @property
    def planner(self):
        """The deployment's replication planner (``None`` = fixed r)."""
        return getattr(self.deployment, "replication_planner", None)

    @property
    def archival(self):
        """The deployment's coded archival tier (``None`` = replicas only)."""
        return getattr(self.deployment, "archival", None)

    @property
    def domains(self):
        """The deployment's failure-domain map (``None`` = oblivious)."""
        return getattr(self.deployment, "domains", None)

    @property
    def idle(self) -> bool:
        """No re-replication currently in flight.

        Digest collection is deliberately excluded: while active the
        engine is *always* mid-exchange at sweep boundaries, but digests
        alone never modify storage — convergence loops pair this with
        stable repair counters.
        """
        return not any(
            request.kind == "repair_request"
            for request in self.tracker.pending.values()
        )

    # ------------------------------------------------------------- sweeping
    def _sweep(self) -> None:
        if not self.active:
            return
        self.stats.sweeps += 1
        self._trace("repair_sweep", {"sweep": self.stats.sweeps})
        planner = self.planner
        if planner is not None:
            # One consistent tier view per sweep: analysis and shedding
            # below act on this classification until the next refresh.
            planner.refresh(self.network.now)
        deployment = self.deployment
        dht = getattr(deployment, "dht", None)
        if dht is not None and dht.enabled:
            # Overlay maintenance rides the sweep cadence: expire lapsed
            # provider records and republish due ones (no DHT timers of
            # its own, so full run() drains still terminate).
            dht.on_sweep()
        for view in sorted(
            deployment.clusters.views(), key=lambda v: v.cluster_id
        ):
            live = self.network.live_members(sorted(view.members))
            if not live:
                continue
            coordinator = live[0]
            session = _DigestSession(view.cluster_id, coordinator)
            # The cluster's own members check its coverage: every live
            # one is polled.
            peers = live[1:]
            session.pending = set(peers)
            # The coordinator's own coverage needs no wire exchange.
            session.absorb(
                coordinator,
                self._local_digest(deployment.nodes[coordinator]),
            )
            for member in peers:
                self._request_digest(session, member)
            if not session.pending:
                self._analyze(session)
        if self.active:
            self._sweep_handle = self.network.clock.schedule(
                self.cadence, self._sweep
            )

    @staticmethod
    def _local_digest(node: ClusterNode) -> list[Hash32]:
        return sorted(block.block_hash for block in node.store.iter_bodies())

    def _request_digest(self, session: _DigestSession, member: int) -> None:
        self.stats.digests_requested += 1

        def send(target: int, request: PendingRequest) -> None:
            coordinator = self.deployment.nodes.get(session.coordinator)
            if coordinator is None:
                return  # coordinator departed mid-collection
            coordinator.send(
                MessageKind.REPAIR_DIGEST_REQUEST,
                target,
                request.request_id,
                DIGEST_REQUEST_BYTES,
            )

        self.tracker.begin(
            next(self.request_ids),
            "repair_digest_request",
            [member],
            send,
            on_degraded=self._digest_degraded,
            context=(session, member),
        )

    def _digest_degraded(self, request: PendingRequest) -> None:
        session, member = request.context
        self.stats.digest_failures += 1
        self._trace(
            "digest_lost",
            {"cluster": session.cluster_id, "member": member},
        )
        # Its coverage is unknown, not empty: analysis excludes it so a
        # dropped digest cannot manufacture false deficits.
        session.unresponsive.add(member)
        session.pending.discard(member)
        if not session.pending:
            self._analyze(session)

    # ------------------------------------------------------------- handlers
    def _on_digest_request(self, node: BaseNode, message: Message) -> None:
        """A member summarizes its held bodies for the coordinator."""
        assert isinstance(node, ClusterNode)
        hashes = tuple(self._local_digest(node))
        node.send(
            MessageKind.REPAIR_DIGEST,
            message.sender,
            (message.payload, hashes),
            16 + DIGEST_HASH_BYTES * len(hashes),
        )

    def _on_digest(self, node: BaseNode, message: Message) -> None:
        request_id, hashes = message.payload
        request = self.tracker.resolve(request_id)
        if request is None:
            return  # duplicate delivery or post-degrade straggler
        session, member = request.context
        self.stats.digests_received += 1
        session.absorb(member, hashes)
        if not session.pending:
            self._analyze(session)

    def _on_repair_request(self, node: BaseNode, message: Message) -> None:
        """A repair source serves (or explicitly misses) one body."""
        assert isinstance(node, ClusterNode)
        request_id, block_hash = message.payload
        if node.store.has_body(block_hash):
            body = node.store.body(block_hash)
            node.send(
                MessageKind.REPAIR_BODIES,
                message.sender,
                (request_id, body),
                body.size_bytes,
            )
        else:
            node.send(
                MessageKind.REPAIR_BODIES,
                message.sender,
                (request_id, None),
                48,
            )

    def _on_repair_bodies(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        request_id, body = message.payload
        request = self.tracker.pending.get(request_id)
        if request is None:
            return  # duplicate delivery or post-degrade straggler
        if body is None:
            # Explicit miss: fail over to the next plan peer immediately.
            self.tracker.advance(request_id)
            return
        cluster_id, block_hash, target = request.context
        if node.node_id != target or body.block_hash != block_hash:
            return
        self.tracker.resolve(request_id)
        self._inflight.discard((block_hash, target))
        node.backfill_headers(body.header, self.deployment.ledger.store)
        node.assign_body(body)
        self._note_repaired(cluster_id, block_hash, target, body)

    # ------------------------------------------------------------- analysis
    def _analyze(self, session: _DigestSession) -> None:
        """Turn one cluster's coverage map into repair orders."""
        deployment = self.deployment
        cluster_id = session.cluster_id
        try:
            members = deployment.clusters.members_of(cluster_id)
        except ClusteringError:  # cluster dissolved since the sweep started
            return
        live = [
            m
            for m in self.network.live_members(sorted(members))
            if m not in session.unresponsive
        ]
        if not live:
            return
        live_set = set(live)
        planner = self.planner
        tier = self.archival
        base_replication = deployment.config.replication
        for header in deployment.ledger.store.iter_active_headers():
            block_hash = header.block_hash
            if tier is not None and not header.is_genesis:
                if tier.is_archived(cluster_id, block_hash):
                    # Coded blocks are the tier's to keep: re-home dead
                    # chunks / thaw re-warmed blocks, and skip the
                    # replica deficit/shed analysis (zero full replicas
                    # is their *correct* state).
                    tier.maintain(cluster_id, header, live)
                    continue
                if (
                    tier.should_archive(cluster_id, block_hash)
                    and not any(
                        key[0] == block_hash for key in self._inflight
                    )
                    and tier.archive(cluster_id, header, live)
                ):
                    continue
            if planner is None or header.is_genesis:
                target = base_replication
            else:
                target = planner.target_for(block_hash)
            floor = min(target, len(live))
            holders = {
                m
                for m in session.coverage.get(block_hash, ())
                if m in live_set
            }
            missing = floor - len(holders)
            if missing <= 0:
                self._first_detected.pop((cluster_id, block_hash), None)
                if (
                    planner is not None
                    and not header.is_genesis
                    and len(holders) > target
                ):
                    self._shed(
                        planner, session, header, members, holders, target
                    )
                elif self.domains is not None:
                    # Floor met but blast radius not restored: the copy
                    # count can be right while every copy shares a zone
                    # (re-replication landed wherever it could during an
                    # outage).  Shedding sweeps skip this — their keep
                    # set is already domain-aware, and this coverage map
                    # is stale once they drop copies.
                    self._restore_diversity(
                        session, header, members, live, holders, floor,
                        target,
                    )
                continue
            self._detect(cluster_id, block_hash, missing)
            targets = self._pick_targets(
                header, members, live, holders, missing, target
            )
            if header.is_genesis:
                # Genesis is a hardcoded constant (as in Bitcoin): every
                # node regenerates it locally instead of fetching.
                genesis = deployment.ledger.store.body(block_hash)
                for target in targets:
                    deployment.nodes[target].assign_body(genesis)
                    self._note_repaired(
                        cluster_id, block_hash, target, genesis
                    )
                continue
            plan = sorted(holders) or self._external_sources(
                block_hash, live_set
            )
            if not plan:
                self._mark_unrecoverable(cluster_id, block_hash)
                continue
            for target in targets:
                self._schedule_repair(cluster_id, block_hash, target, plan)

    def _detect(
        self, cluster_id: int, block_hash: Hash32, missing: int
    ) -> None:
        key = (cluster_id, block_hash)
        if key in self._first_detected:
            return
        self._first_detected[key] = self.network.now
        self.stats.under_replicated += 1
        if self.deployment.tracer is not None:
            self._trace(
                "under_replicated",
                {
                    "cluster": cluster_id,
                    "block": block_hash.hex()[:12],
                    "missing": missing,
                },
            )

    def _restore_diversity(
        self,
        session: _DigestSession,
        header: BlockHeader,
        members: tuple[int, ...],
        live: list[int],
        holders: set[int],
        floor: int,
        target: int,
    ) -> None:
        """Re-spread one floor-met block whose copies share a zone.

        Diversity demands ``min(floor, live-zone count)`` distinct
        zones among the live holders; when the spread falls short, an
        extra copy is pulled onto a member in an uncovered zone (the
        domain-aware :meth:`_pick_targets` order).  The surplus copy is
        harmless on fixed-r deployments and is shed by the next
        adaptive sweep — whose keep set prefers the diverse holders, so
        the two passes converge instead of oscillating.
        """
        domains = self.domains
        if domains is None or header.is_genesis or not holders:
            return
        block_hash = header.block_hash
        if any(key[0] == block_hash for key in self._inflight):
            return  # a repair is still converging this block; next sweep
        need = min(floor, len(domains.zones_of(live)))
        spread = len(domains.zones_of(holders))
        if spread >= need:
            return
        targets = self._pick_targets(
            header, members, live, holders, need - spread, target
        )
        plan = sorted(holders)
        for repair_target in targets:
            self.diversity_repairs += 1
            if self.deployment.tracer is not None:
                self._trace(
                    "diversity_repair",
                    {
                        "cluster": session.cluster_id,
                        "block": block_hash.hex()[:12],
                        "target": repair_target,
                    },
                )
            self._schedule_repair(
                session.cluster_id, block_hash, repair_target, plan
            )

    def _pick_targets(
        self,
        header: BlockHeader,
        members: tuple[int, ...],
        live: list[int],
        holders: set[int],
        missing: int,
        replication: int | None = None,
    ) -> list[int]:
        """Live members owed a copy: placement-assigned first, then fill.

        With a failure-domain map on the deployment the fill order is
        re-ranked for **domain diversity**: each pick prefers the first
        candidate whose zone no current holder (or earlier pick) already
        covers, so re-replication restores blast-radius spread, not just
        copy count.  Domain-oblivious deployments keep the original
        order exactly.
        """
        if replication is None:
            replication = self.deployment.config.replication
        assigned = [
            member
            for member in self.deployment.placement.holders(
                header, members, min(replication, len(members))
            )
            if member in set(live) and member not in holders
        ]
        extras = [
            member
            for member in live
            if member not in holders and member not in assigned
        ]
        ordered = assigned + extras
        domains = self.domains
        if domains is None:
            return ordered[:missing]
        covered = {domains.zone_of(holder) for holder in holders}
        picked: list[int] = []
        pool = list(ordered)
        while pool and len(picked) < missing:
            choice = next(
                (m for m in pool if domains.zone_of(m) not in covered),
                pool[0],
            )
            pool.remove(choice)
            picked.append(choice)
            covered.add(domains.zone_of(choice))
        return picked

    def _external_sources(
        self, block_hash: Hash32, cluster_members: set[int]
    ) -> list[int]:
        """Live out-of-cluster holders, for cross-cluster failover."""
        sources: list[int] = []
        for node_id in sorted(self.deployment.nodes):
            if node_id in cluster_members:
                continue
            if not self.network.live_members([node_id]):
                continue
            if self.deployment.nodes[node_id].store.has_body(block_hash):
                sources.append(node_id)
                if len(sources) >= EXTERNAL_SOURCE_LIMIT:
                    break
        return sources

    def _shed(
        self,
        planner,
        session: _DigestSession,
        header: BlockHeader,
        members: tuple[int, ...],
        holders: set[int],
        target: int,
    ) -> None:
        """Drop surplus replicas of one over-target block (adaptive only).

        Keeps exactly the placement function's top-``target`` members
        (the same set the query engine's read plan and the deficit
        filler use), dropping the rest — sorted order, so two same-seed
        runs shed identically.  Every guard failure is counted instead
        of forced: the floor is the planner's promise, not a best
        effort.
        """
        block_hash = header.block_hash
        if any(key[0] == block_hash for key in self._inflight):
            return  # a repair is still converging this block; next sweep
        deployment = self.deployment
        cluster_id = session.cluster_id
        keep_quota = max(target, 1)
        keep = [
            member
            for member in deployment.placement.holders(
                header, members, min(keep_quota, len(members))
            )
            if member in holders
        ]
        domains = self.domains
        if domains is not None:
            # Domain-aware fill: surviving copies should span zones, so
            # the fill pass prefers holders in zones the keep set does
            # not already cover (still sorted-deterministic within each
            # preference tier).
            kept_zones = {domains.zone_of(member) for member in keep}
            for member in sorted(holders):
                if len(keep) >= keep_quota:
                    break
                zone = domains.zone_of(member)
                if member not in keep and zone not in kept_zones:
                    keep.append(member)
                    kept_zones.add(zone)
        for member in sorted(holders):
            if len(keep) >= keep_quota:
                break
            if member not in keep:
                keep.append(member)
        keep_set = set(keep)
        live = self.network.live_members(sorted(members))
        for member in sorted(holders - keep_set):
            node = deployment.nodes.get(member)
            if node is None or not node.store.has_body(block_hash):
                continue  # stale digest: nothing to drop (idempotent)
            survivors = sum(
                1
                for other in live
                if other != member
                and other in deployment.nodes
                and deployment.nodes[other].store.has_body(block_hash)
            )
            floor = min(keep_quota, max(len(live), 1))
            if survivors < floor:
                # Dropping would break the replica floor — or orphan the
                # cluster's last copy, which is also its contribution to
                # cross-cluster coverage.  Refuse and count it.
                planner.note_shed_blocked()
                continue
            freed = node.unassign_body(block_hash)
            planner.note_shed(block_hash, freed)
            if deployment.tracer is not None:
                self._trace(
                    "replica_shed",
                    {
                        "cluster": cluster_id,
                        "block": block_hash.hex()[:12],
                        "member": member,
                        "bytes": freed,
                    },
                )
            remaining = sum(
                1
                for other in live
                if other in deployment.nodes
                and deployment.nodes[other].store.has_body(block_hash)
            )
            if remaining < floor:
                planner.note_floor_violation()
            if deployment.tracer is not None:
                record_cluster_storage(
                    deployment.tracer, deployment, cluster_id, self.network.now
                )

    def _mark_unrecoverable(self, cluster_id: int, block_hash: Hash32) -> None:
        key = (cluster_id, block_hash)
        if key in self._unrecoverable:
            return
        self._unrecoverable.add(key)
        self.stats.unrecoverable += 1
        self.router.note_degraded("repair_request")
        if self.deployment.tracer is not None:
            self._trace(
                "unrecoverable",
                {"cluster": cluster_id, "block": block_hash.hex()[:12]},
            )

    def _schedule_repair(
        self,
        cluster_id: int,
        block_hash: Hash32,
        target: int,
        plan: list[int],
    ) -> None:
        key = (block_hash, target)
        if key in self._inflight or target not in self.deployment.nodes:
            return
        self._inflight.add(key)
        self.stats.repairs_scheduled += 1

        def send(source: int, request: PendingRequest) -> None:
            requester = self.deployment.nodes.get(target)
            if requester is None:
                return  # target departed mid-repair
            requester.send(
                MessageKind.REPAIR_REQUEST,
                source,
                (request.request_id, block_hash),
                REPAIR_REQUEST_BYTES,
            )

        self.tracker.begin(
            next(self.request_ids),
            "repair_request",
            plan,
            send,
            on_degraded=self._repair_degraded,
            context=(cluster_id, block_hash, target),
        )

    def _repair_degraded(self, request: PendingRequest) -> None:
        cluster_id, block_hash, target = request.context
        self._inflight.discard((block_hash, target))
        self.stats.repairs_degraded += 1
        if self.deployment.tracer is not None:
            self._trace(
                "repair_degraded",
                {
                    "cluster": cluster_id,
                    "block": block_hash.hex()[:12],
                    "target": target,
                },
            )
        # Next sweep re-detects the deficit and tries again (idempotent).

    # ------------------------------------------------------------- plumbing
    def _note_repaired(
        self,
        cluster_id: int,
        block_hash: Hash32,
        target: int,
        body: Block,
    ) -> None:
        self.stats.blocks_re_replicated += 1
        self.stats.bytes_re_replicated += body.size_bytes
        detected_at = self._first_detected.get((cluster_id, block_hash))
        if detected_at is not None:
            self.repair_times.append(self.network.now - detected_at)
        self._unrecoverable.discard((cluster_id, block_hash))
        tracer = self.deployment.tracer
        if tracer is None:
            return
        self._trace(
            "re_replicated",
            {
                "cluster": cluster_id,
                "block": block_hash.hex()[:12],
                "target": target,
            },
        )
        record_cluster_storage(
            tracer, self.deployment, cluster_id, self.network.now
        )

    def _trace(self, name: str, args: dict | None = None) -> None:
        tracer = self.deployment.tracer
        if tracer is None:
            return
        tracer.instant(
            name,
            self._track,
            ts=self.network.clock.now,
            category="repair",
            args=args,
        )
