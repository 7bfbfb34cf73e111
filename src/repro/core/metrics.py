"""Deployment-level metrics shared by ICIStrategy and the baselines.

The deployments do not call the record methods directly for protocol
events any more: each deployment's :class:`MessageRouter` publishes
``on_send`` / ``on_deliver`` / ``on_finalize`` to a :class:`MetricsRecorder`
observer, which folds them into the shared :class:`DeploymentMetrics`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.verification import VerificationCosts
from repro.crypto.hashing import Hash32
from repro.net.message import KIND_VALUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message
    from repro.node.base import BaseNode
    from repro.protocols.router import FinalizeEvent


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


@dataclass
class BootstrapReport:
    """What one joining node cost."""

    node_id: int
    cluster_id: int
    started_at: float
    completed_at: float | None = None
    header_bytes: int = 0
    body_bytes: int = 0
    snapshot_bytes: int = 0
    bodies_fetched: int = 0
    migration_bytes_freed: int = 0
    #: Assigned bodies no live source could serve (pre-existing data
    #: loss in the cluster, e.g. an r=1 crash before this join).
    bodies_unavailable: list[Hash32] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Everything the joiner downloaded."""
        return self.header_bytes + self.body_bytes + self.snapshot_bytes

    @property
    def duration(self) -> float | None:
        """Seconds from start to completion (``None`` while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def complete(self) -> bool:
        """Has this operation finished?"""
        return self.completed_at is not None


@dataclass
class DepartureReport:
    """What retiring (or losing) one member cost the cluster."""

    node_id: int
    cluster_id: int
    started_at: float
    graceful: bool
    completed_at: float | None = None
    blocks_transferred: int = 0
    bytes_moved: int = 0
    lost_blocks: list[Hash32] = field(default_factory=list)
    # Blocks whose tracked repair transfer exhausted every retry (fault
    # weather): the departure completes without them and the anti-entropy
    # sweep re-replicates them afterwards.
    deferred_blocks: list[Hash32] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        """Seconds from start to completion (``None`` while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def complete(self) -> bool:
        """Has this operation finished?"""
        return self.completed_at is not None


@dataclass
class RouterStats:
    """Per-message-kind dispatch counters fed by the router's observers.

    Keys are :class:`~repro.net.message.MessageKind` values (strings), so
    reports can be serialized without importing the enum.
    """

    sends: dict[str, int] = field(default_factory=dict)
    send_bytes: dict[str, int] = field(default_factory=dict)
    deliveries: dict[str, int] = field(default_factory=dict)
    finalize_events: int = 0
    # Reliability-layer counters (per kind).  Deliberately NOT part of
    # the bench harness's simulated-metrics capture: they are additive
    # bookkeeping, so growing them cannot drift the committed baseline.
    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)

    @property
    def total_sends(self) -> int:
        """Protocol messages handed to the network, all kinds."""
        return sum(self.sends.values())

    @property
    def total_deliveries(self) -> int:
        """Messages dispatched to a handler, all kinds."""
        return sum(self.deliveries.values())

    @property
    def total_retries(self) -> int:
        """Retry sends across every protocol, all kinds."""
        return sum(self.retries.values())

    @property
    def total_timeouts(self) -> int:
        """Request deadlines that fired on still-pending requests."""
        return sum(self.timeouts.values())

    @property
    def total_degraded(self) -> int:
        """Requests that exhausted every replica without an answer."""
        return sum(self.degraded.values())


@dataclass
class DeploymentMetrics:
    """Everything a deployment records while blocks flow through it."""

    block_submitted_at: dict[Hash32, float] = field(default_factory=dict)
    cluster_finalized_at: dict[tuple[Hash32, int], float] = field(
        default_factory=dict
    )
    costs: VerificationCosts = field(default_factory=VerificationCosts)
    queries: list[QueryRecord] = field(default_factory=list)
    bootstraps: list[BootstrapReport] = field(default_factory=list)
    departures: list[DepartureReport] = field(default_factory=list)
    blocks_rejected: set[Hash32] = field(default_factory=set)
    router_stats: RouterStats = field(default_factory=RouterStats)

    # -------------------------------------------------------------- record
    def record_submit(self, block_hash: Hash32, now: float) -> None:
        """Record when a block was injected (first write wins)."""
        self.block_submitted_at.setdefault(block_hash, now)

    def record_cluster_final(
        self, block_hash: Hash32, cluster_id: int, now: float
    ) -> None:
        """Record a cluster's finalization time (first write wins)."""
        self.cluster_finalized_at.setdefault((block_hash, cluster_id), now)

    # ------------------------------------------------------------- derived
    def finalize_latency(
        self, block_hash: Hash32, n_clusters: int
    ) -> float | None:
        """Submit→last-cluster-finalized latency; ``None`` if incomplete."""
        submitted = self.block_submitted_at.get(block_hash)
        if submitted is None:
            return None
        times = [
            t
            for (bh, _), t in self.cluster_finalized_at.items()
            if bh == block_hash
        ]
        if len(times) < n_clusters:
            return None
        return max(times) - submitted

    def first_cluster_latency(self, block_hash: Hash32) -> float | None:
        """Submit→first-cluster-finalized latency."""
        submitted = self.block_submitted_at.get(block_hash)
        if submitted is None:
            return None
        times = [
            t
            for (bh, _), t in self.cluster_finalized_at.items()
            if bh == block_hash
        ]
        if not times:
            return None
        return min(times) - submitted

    def completed_query_latencies(self) -> list[float]:
        """Latencies of every completed retrieval."""
        return [
            record.latency
            for record in self.queries
            if record.latency is not None
        ]

    def mean_query_latency(self) -> float | None:
        """Mean completed-retrieval latency (``None`` when none)."""
        latencies = self.completed_query_latencies()
        if not latencies:
            return None
        return statistics.fmean(latencies)


class MetricsRecorder:
    """Router observer that folds protocol events into the metrics sink.

    Installed by :class:`~repro.core.interface.StorageDeployment` on every
    deployment's router, so engines publish :class:`FinalizeEvent`s and
    never touch the timing tables directly.  Every :class:`FinalizeEvent`
    is counted; one with ``cluster_final`` (and a cluster id) also records
    the cluster's finalization time — quorum-based strategies emit
    per-node events with ``cluster_final=False`` plus one cluster-level
    event at quorum.
    """

    def __init__(self, metrics: DeploymentMetrics) -> None:
        self._metrics = metrics

    def on_send(self, message: "Message") -> None:
        """Count one protocol send by kind (wire bytes incl. envelope)."""
        stats = self._metrics.router_stats
        kind = KIND_VALUE[message.kind]
        stats.sends[kind] = stats.sends.get(kind, 0) + 1
        stats.send_bytes[kind] = (
            stats.send_bytes.get(kind, 0) + message.size_bytes
        )

    def on_deliver(self, node: "BaseNode", message: "Message") -> None:
        """Count one dispatched delivery by kind."""
        deliveries = self._metrics.router_stats.deliveries
        kind = KIND_VALUE[message.kind]
        deliveries[kind] = deliveries.get(kind, 0) + 1

    def on_retry(self, kind: str) -> None:
        """Count one reliability-layer retry send by kind."""
        retries = self._metrics.router_stats.retries
        retries[kind] = retries.get(kind, 0) + 1

    def on_timeout(self, kind: str) -> None:
        """Count one request deadline that fired while still pending."""
        timeouts = self._metrics.router_stats.timeouts
        timeouts[kind] = timeouts.get(kind, 0) + 1

    def on_degraded(self, kind: str) -> None:
        """Count one request that exhausted every replica."""
        degraded = self._metrics.router_stats.degraded
        degraded[kind] = degraded.get(kind, 0) + 1

    def on_finalize(self, event: "FinalizeEvent") -> None:
        """Count a finalization; a cluster-final one is also timed."""
        self._metrics.router_stats.finalize_events += 1
        if event.cluster_final and event.cluster_id is not None:
            self._metrics.record_cluster_final(
                event.block_hash, event.cluster_id, event.at
            )
