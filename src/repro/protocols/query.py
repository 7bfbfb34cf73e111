"""Query engine: intra-cluster block retrieval and the SPV service.

Owns the holder plan, retry/timeout lifecycle and completion of
block-body queries (any member can fetch a body it lacks from an
in-cluster placement holder) — the ``read`` flow of the body-transfer
service (:mod:`repro.protocols.transfer`), which carries each request
and its reply — and the light-client proof service built on the same
"any cluster serves anything" property.  Compact-block transaction
fetches also ride the CONTROL kind and are delegated to the
dissemination engine, which owns reconstruction state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block
from repro.crypto.hashing import Hash32
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.node.lightnode import LightNode
from repro.protocols.compact import on_txfetch, on_txfill
from repro.protocols.reliability import (
    DEFAULT_RETRY_POLICY,
    PendingRequest,
    RequestTracker,
    RetryPolicy,
)
from repro.protocols.router import MessageRouter, ProtocolEngine
from repro.protocols.spv import (
    SpvRecord,
    handle_spv_request,
    handle_spv_response,
)
from repro.protocols.transfer import Flow

#: Seconds a requester waits for a holder before trying the next one.
QUERY_TIMEOUT = 2.0
#: Bytes of a read's ``BLOCK_REQUEST`` payload.
SYNC_REQUEST_BYTES = 64


@dataclass
class QueryRecord:
    """One block-retrieval request's lifecycle."""

    request_id: int
    requester: int
    block_hash: Hash32
    started_at: float
    completed_at: float | None = None
    attempts: int = 1
    timeouts: int = 0
    failovers: int = 0
    #: Every replica exhausted without an answer (fault-layer runs).
    degraded: bool = False

    @property
    def latency(self) -> float | None:
        """Seconds from request to body delivery (``None`` while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class QueryEngine(ProtocolEngine):
    """Block-body retrieval with retries, plus SPV proof serving.

    Retry pacing lives in a :class:`RequestTracker` whose default policy
    reproduces the engine's historical fixed-timeout behaviour (every
    in-cluster holder tried twice, :data:`QUERY_TIMEOUT` apart); chaos
    scenarios install a backoff policy via :meth:`set_retry_policy`.
    """

    name = "query"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        self.queries: dict[int, QueryRecord] = {}
        self.next_request_id = 0
        self.tracker = RequestTracker(
            deployment.network.clock,
            deployment.router,
            policy=DEFAULT_RETRY_POLICY,
        )

        # SPV light-client service state.
        self.light_clients: dict[int, LightNode] = {}
        self.light_contacts: dict[int, int] = {}
        self.spv_records: dict[int, SpvRecord] = {}
        self.next_spv_id = 0
        self.spv_log: list[SpvRecord] = []

    def set_retry_policy(self, policy: RetryPolicy) -> None:
        """Swap the retry pacing (existing pending requests keep theirs)."""
        self.tracker.policy = policy

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.CONTROL, self._on_control, owner=self.name
        )
        self.deployment.transfer.flows["read"] = Flow(
            32, self._wanted, self._on_reply, self._keeps
        )

    # -------------------------------------------------------------- queries
    def retrieve_block(
        self, requester_id: int, block_hash: Hash32
    ) -> QueryRecord:
        """Fetch a block body from in-cluster holders (see interface docs)."""
        deployment = self.deployment
        node = deployment.nodes[requester_id]
        record = QueryRecord(
            request_id=self.next_request_id,
            requester=requester_id,
            block_hash=block_hash,
            started_at=self.network.now,
        )
        self.next_request_id += 1
        self.metrics.queries.append(record)
        self.queries[record.request_id] = record

        if node.store.has_body(block_hash):
            record.completed_at = self.network.now
            return record
        header = node.store.header(block_hash)  # raises UnknownBlockError
        dht = getattr(deployment, "dht", None)
        if dht is not None and dht.enabled:
            # Overlay resolution first: FIND_VALUE for the holder set,
            # whose in-cluster holders lead the plan, the legacy plan
            # appended as the fallback tail (and used alone when the
            # lookup misses).
            self._retrieve_via_dht(record, node, header)
            return record
        self._begin(record, self._plan_holders(node, header, requester_id))
        return record

    def _plan_holders(
        self, node: ClusterNode, header, requester_id: int
    ) -> list[int]:
        """The legacy holder plan: placement/planner + failover tail."""
        deployment = self.deployment
        block_hash = header.block_hash
        holders = [
            holder
            for holder in self._assigned(node, header)
            if holder != requester_id
        ]
        if self.network.faults is not None:
            # Under faults an assigned holder may itself have lost the
            # body; extend the failover plan with up to two out-of-cluster
            # peers that verifiably hold it, so the tracker can cross the
            # cluster boundary after the local replicas are exhausted.
            holders = holders + [
                other
                for other in sorted(deployment.nodes)
                if other != requester_id
                and other not in holders
                and deployment.nodes[other].store.has_body(block_hash)
            ][:2]
        if not holders:
            # Degenerate single-member cluster: cross-cluster fallback.
            holders = [
                other
                for other in deployment.nodes
                if other != requester_id
                and deployment.nodes[other].store.has_body(block_hash)
            ][:1]
        return holders

    def _assigned(self, node: ClusterNode, header) -> tuple[int, ...]:
        """The block's in-cluster holders, as ``node`` plans its reads."""
        planner = getattr(self.deployment, "replication_planner", None)
        if planner is not None:
            # Adaptive replication: the read plan follows the per-block
            # tier target — hot blocks expose their extra replicas, cold
            # blocks name exactly the keeper the shed pass retained.
            return planner.read_plan(
                header, self.deployment.clusters.members_of(node.cluster_id)
            )
        return self.deployment.holders_in_cluster(header, node.cluster_id)

    def _begin(self, record: QueryRecord, holders: list[int]) -> None:
        """Start the tracked fetch over ``holders`` (may be empty)."""
        # An empty plan is unresolvable: begin degrades it on the spot
        # (no events scheduled) and the record stays incomplete.
        self.tracker.begin(
            record.request_id,
            "block_request",
            holders,
            self._send_attempt,
            on_degraded=self._mark_degraded,
            context=record,
        )

    def _retrieve_via_dht(
        self, record: QueryRecord, node: ClusterNode, header
    ) -> None:
        """Resolve holders through the overlay, then fetch as usual.

        The plan keeps only the FIND_VALUE result's holders that are
        members of the requester's cluster (every cluster holds the
        whole ledger), then the legacy plan's remainder, so a stale or
        partial record degrades to exactly the pre-DHT behaviour.  The
        read crosses the cluster boundary only by that plan's own
        tails: under faults, or from a single-member cluster.
        """
        deployment = self.deployment

        def resolved(holders: "tuple[int, ...] | None") -> None:
            if record.completed_at is not None or record.degraded:
                return  # answered (or given up) while the lookup ran
            in_cluster = set(deployment.clusters.members_of(node.cluster_id))
            plan = sorted(
                h
                for h in holders or ()
                if h != record.requester and h in in_cluster
            )
            legacy = self._plan_holders(node, header, record.requester)
            plan += [h for h in legacy if h not in plan]
            self._begin(record, plan)

        deployment.dht.find_holders(
            record.requester, record.block_hash, resolved
        )

    def _send_attempt(self, target: int, request: PendingRequest) -> None:
        record: QueryRecord = request.context
        self._mirror(record, request)
        requester = self.deployment.nodes.get(record.requester)
        if requester is None:
            # The requester left between attempts: nobody to retry for.
            self.tracker.abandon(request.request_id, "requester-departed")
            return
        self.deployment.transfer.request(
            requester,
            target,
            "read",
            record.request_id,
            (record.block_hash,),
            SYNC_REQUEST_BYTES,
        )

    def _mirror(self, record: QueryRecord, request: PendingRequest) -> None:
        record.attempts = request.attempts
        record.timeouts = request.timeouts
        record.failovers = request.failovers

    def _mark_degraded(self, request: PendingRequest) -> None:
        """All replicas exhausted: reconstruct from the archival tier,
        or carry the degraded verdict on the record."""
        record: QueryRecord = request.context
        self._mirror(record, request)
        if self._reconstruct_from_archive(record):
            return
        record.degraded = True

    def _reconstruct_from_archive(self, record: QueryRecord) -> bool:
        """The failover tail's last resort: decode a coded cold block.

        With the archival tier enabled a cold block holds **zero** full
        replicas in the requester's cluster — every planned holder
        misses by design, and the query completes here instead, charged
        as ``k`` chunk reads on the tier.  The decoded body is not
        re-adopted as a replica (cold blocks stay coded until the
        planner rewarms them).
        """
        tier = getattr(self.deployment, "archival", None)
        if tier is None:
            return False
        node = self.deployment.nodes.get(record.requester)
        if node is None:
            return False
        block = tier.reconstruct(node.cluster_id, record.block_hash)
        if block is None:
            return False
        record.completed_at = self.network.now
        return True

    # ------------------------------------------------------ the read flow
    def _wanted(
        self, node: ClusterNode, request_id: int
    ) -> tuple[Hash32] | None:
        record = self.queries.get(request_id)
        if record is None or record.completed_at is not None:
            return None
        return (record.block_hash,)

    def _on_reply(
        self,
        node: ClusterNode,
        source: int,
        request_id: int,
        bodies: list[Block],
    ) -> None:
        """The requested body arrived, or the holder missed: try the next."""
        if not bodies:
            self.tracker.advance(request_id)
            return
        self.queries[request_id].completed_at = self.network.now
        self.tracker.resolve(request_id)

    def _keeps(self, node: ClusterNode, block: Block) -> bool:
        """Chaos repair: a holder that lost (or never received) its
        assigned body re-adopts it when a read brings it back."""
        if (
            self.network.faults is None
            or node.store.has_body(block.block_hash)
            or not node.store.has_header(block.block_hash)
        ):
            return False
        # The read plan's holders: re-adopting past the tier target
        # would ratchet a shed cold copy back on every read.
        header = node.store.header(block.block_hash)
        return node.node_id in self._assigned(node, header)

    # ---------------------------------------------------------------- SPV
    def _on_control(self, node: BaseNode, message: Message) -> None:
        tag = message.payload[0]
        if tag == "spv_req" and isinstance(node, ClusterNode):
            handle_spv_request(self.deployment, node, message.payload)
        elif tag in ("spv_resp", "spv_miss"):
            handle_spv_response(self.deployment, node, message.payload)
        elif tag == "txfetch" and isinstance(node, ClusterNode):
            on_txfetch(self.deployment, node, message.payload)
        elif tag == "txfill" and isinstance(node, ClusterNode):
            on_txfill(self.deployment, node, message.payload)
