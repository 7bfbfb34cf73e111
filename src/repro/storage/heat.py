"""Heat-aware adaptive replication: access scoring and tier planning.

The paper fixes the in-cluster replication factor ``r`` per deployment,
which leaves cold history over-replicated and hot blocks bottlenecked on
``r`` serving replicas.  This module closes the loop the ROADMAP names:
observed access heat drives a *per-block* replication target, and the
anti-entropy engine (:mod:`repro.protocols.repair`) converges actual
placements toward it — it already adds replicas; with a planner attached
it also sheds them.

Two pieces:

* :class:`HeatTracker` — a router observer (the same hook surface the
  metrics recorder and tracing observer use).  Every delivered
  ``BLOCK_REQUEST`` of the ``read`` flow (a query reaching a holder) and
  of the ``pull`` flow (a re-replication pull) counts as one access to
  that block; join and departure batches do not count.  Accesses
  accumulate into an exponentially decayed rate on **virtual time**, so
  two same-seed runs score identically on any machine.
* :class:`ReplicationPlanner` — ranks every active block by a weighted
  (read rate, recency, size) score, classifies them by *rank quantile*
  (top slice hot, bottom slice cold, rest warm — rank-based so a flat
  score distribution cannot flip the whole chain into one tier), and
  maps tiers to replication targets: hot ``r + HOT_BONUS``, warm ``r``,
  cold ``max(r - COLD_MARGIN, 1)``.

The scoring weights, decay half-life and tier quantiles are the module
constants below.

The subsystem is **opt-in and dormant by default**: nothing here is
constructed unless :meth:`~repro.core.icistrategy.ICIDeployment.
enable_adaptive_replication` runs, so fixed-``r`` deployments keep
byte-identical simulated metrics (the bench baseline gate enforces it).

Shed-safety invariants (enforced by the repair engine, audited here):

* a shed never drops a cluster below ``min(target, live)`` live copies,
  and never below **one** — the last in-cluster copy is also the last
  cross-cluster copy from that cluster's point of view;
* blocks younger than :data:`WARMUP_SECONDS` are never classified cold
  (no heat evidence yet), and nothing is classified until the tracker
  has seen :data:`MIN_OBSERVATIONS` accesses overall;
* genesis is exempt (regenerable, but it anchors every audit).

Every shed is followed by a recount of actual live holders; a recount
below the floor increments :attr:`AdaptiveStats.floor_violations` —
the endurance audit pins that counter at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.crypto.hashing import Hash32
from repro.net.message import MessageKind
from repro.obs.hooks import record_tier_storage
from repro.obs.tracer import proto_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.block import BlockHeader
    from repro.net.message import Message
    from repro.net.simclock import SimClock
    from repro.node.base import BaseNode

#: Tier labels, hottest first (also the rank order the planner assigns).
HOT = "hot"
WARM = "warm"
COLD = "cold"
TIERS = (HOT, WARM, COLD)


#: Virtual seconds for an access's weight to halve.
HALF_LIFE = 30.0
#: Score weights: the decayed access rate, the time-since-last-access
#: term and the (small-is-cheap) size term.
READ_WEIGHT = 1.0
RECENCY_WEIGHT = 0.5
SIZE_WEIGHT = 0.25
#: Body bytes at which the size term reaches 0.5.
SIZE_SCALE = 4096.0
#: Heat of one re-replication pull (a ``pull`` flow ``BLOCK_REQUEST``)
#: relative to a query hit (re-requests are demand too, but second-hand).
REPAIR_WEIGHT = 0.5
#: Blocks ranked above this score quantile are hot (0.9 → top 10%).
HOT_QUANTILE = 0.9
#: Blocks ranked below this quantile are cold (0.7 → bottom 70%;
#: archival chains are mostly cold).
COLD_QUANTILE = 0.7
#: Extra replicas per cluster for hot blocks.
HOT_BONUS = 2
#: Replicas removed for cold blocks (floor-clamped to 1).
COLD_MARGIN = 1
#: A block stays at least warm this long after the planner first sees it.
WARMUP_SECONDS = 10.0
#: No block is classified away from warm until the tracker has
#: witnessed this many accesses in total.
MIN_OBSERVATIONS = 8


@dataclass
class AdaptiveStats:
    """What the planner classified and the repair engine shed.

    Deterministic counters only — this dict joins the endurance
    signature when (and only when) the adaptive path is enabled.
    """

    refreshes: int = 0
    reclassifications: int = 0
    hot_blocks: int = 0
    warm_blocks: int = 0
    cold_blocks: int = 0
    replicas_shed: int = 0
    bytes_shed: int = 0
    sheds_blocked: int = 0
    #: Post-shed recounts that found fewer live copies than the floor.
    #: The shed guard makes this structurally zero; audits pin it.
    floor_violations: int = 0


class _BlockHeat:
    """Decayed access accumulator for one block."""

    __slots__ = ("rate", "last_access")

    def __init__(self) -> None:
        self.rate = 0.0
        self.last_access = 0.0


class HeatTracker:
    """Router observer accumulating per-block access heat.

    Installed with ``router.add_observer`` next to the metrics recorder;
    it draws no randomness, sends nothing, and schedules nothing, so
    attaching it cannot perturb the simulation schedule.
    """

    def __init__(self, clock: "SimClock") -> None:
        self._clock = clock
        self._heat: dict[Hash32, _BlockHeat] = {}
        self.total_accesses = 0

    # -------------------------------------------------------- router hooks
    def on_send(self, message: "Message") -> None:
        """Unused (observer protocol)."""

    def on_deliver(self, node: "BaseNode", message: "Message") -> None:
        """Count query hits and repair pulls as block accesses."""
        if message.kind is MessageKind.BLOCK_REQUEST:
            _request_id, flow, hashes = message.payload
            if flow == "read":
                self.note_access(hashes[0])
            elif flow == "pull":
                self.note_access(hashes[0], weight=REPAIR_WEIGHT)

    def on_finalize(self, event) -> None:
        """Unused (observer protocol)."""

    # ------------------------------------------------------------- scoring
    def note_access(self, block_hash: Hash32, weight: float = 1.0) -> None:
        """Fold one access at the current virtual time into the rate."""
        now = self._clock.now
        heat = self._heat.get(block_hash)
        if heat is None:
            heat = self._heat[block_hash] = _BlockHeat()
        heat.rate = heat.rate * self._decay(now - heat.last_access) + weight
        heat.last_access = now
        self.total_accesses += 1

    def _decay(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 1.0
        return math.exp(-elapsed * math.log(2.0) / HALF_LIFE)

    def rate(self, block_hash: Hash32, now: float | None = None) -> float:
        """The decayed access rate of one block at ``now``."""
        heat = self._heat.get(block_hash)
        if heat is None:
            return 0.0
        if now is None:
            now = self._clock.now
        return heat.rate * self._decay(now - heat.last_access)

    def score(
        self, block_hash: Hash32, size_bytes: int, now: float | None = None
    ) -> float:
        """Weighted heat score: read rate + recency + small-size bonus."""
        if now is None:
            now = self._clock.now
        heat = self._heat.get(block_hash)
        if heat is None:
            rate = recency = 0.0
        else:
            decay = self._decay(now - heat.last_access)
            rate = heat.rate * decay
            recency = decay
        size_term = SIZE_SCALE / (SIZE_SCALE + size_bytes)
        return (
            READ_WEIGHT * rate
            + RECENCY_WEIGHT * recency
            + SIZE_WEIGHT * size_term
        )


class ReplicationPlanner:
    """Tier classification and per-block replication targets.

    Refreshed at the start of every anti-entropy sweep; between
    refreshes :meth:`target_for` and :meth:`read_plan` answer from the
    last classification, so the repair engine and the query engine act
    on one consistent view per sweep.
    """

    def __init__(self, deployment, tracker: HeatTracker) -> None:
        self.deployment = deployment
        self.tracker = tracker
        self.stats = AdaptiveStats()
        self.tiers: dict[Hash32, str] = {}
        self._first_seen: dict[Hash32, float] = {}
        self._track = proto_track("heat")

    # ------------------------------------------------------------- targets
    def target_for(self, block_hash: Hash32) -> int:
        """Replication target for one block under its current tier."""
        base = self.deployment.config.replication
        tier = self.tiers.get(block_hash, WARM)
        if tier == HOT:
            return base + HOT_BONUS
        if tier == COLD:
            return max(base - COLD_MARGIN, 1)
        return base

    def tier_of(self, block_hash: Hash32) -> str:
        """Current tier of one block (unclassified blocks are warm)."""
        return self.tiers.get(block_hash, WARM)

    def read_plan(
        self, header: "BlockHeader", members: Iterable[int]
    ) -> tuple[int, ...]:
        """Query/keep plan: the placement's top-``target`` members.

        The same deterministic placement function produces the repair
        engine's keep-set and fill-set, so the three views (who serves
        reads, who keeps a copy, who is owed one) always agree.
        """
        members = tuple(members)
        target = min(self.target_for(header.block_hash), len(members))
        return self.deployment.placement.holders(
            header, members, max(target, 1)
        )

    # ------------------------------------------------------ classification
    def refresh(self, now: float | None = None) -> int:
        """Re-rank every active block; returns reclassification count.

        Rank-quantile tiers: blocks are ordered by score (hash as the
        deterministic tie-break), the top ``1 - HOT_QUANTILE`` slice is
        hot, the bottom ``COLD_QUANTILE`` slice is cold.  Guards: hot
        needs a nonzero observed rate, cold needs the block to be past
        warm-up and the tracker past ``MIN_OBSERVATIONS``.
        """
        deployment = self.deployment
        if now is None:
            now = deployment.network.now
        self.stats.refreshes += 1
        store = deployment.ledger.store
        scored: list[tuple[float, str, Hash32]] = []
        sizes: dict[Hash32, int] = {}
        for header in store.iter_active_headers():
            if header.is_genesis:
                continue
            block_hash = header.block_hash
            self._first_seen.setdefault(block_hash, now)
            size = store.body(block_hash).body_size_bytes
            sizes[block_hash] = size
            scored.append(
                (
                    self.tracker.score(block_hash, size, now),
                    block_hash.hex(),
                    block_hash,
                )
            )
        scored.sort(key=lambda entry: (-entry[0], entry[1]))
        n = len(scored)
        hot_count = int(n * (1.0 - HOT_QUANTILE))
        cold_count = int(n * COLD_QUANTILE)
        observed = self.tracker.total_accesses >= MIN_OBSERVATIONS
        changes = 0
        counts = {HOT: 0, WARM: 0, COLD: 0}
        for index, (score, _, block_hash) in enumerate(scored):
            if not observed:
                tier = WARM
            elif (
                index < hot_count
                and self.tracker.rate(block_hash, now) > 0.0
            ):
                tier = HOT
            elif (
                index >= n - cold_count
                and now - self._first_seen[block_hash]
                >= WARMUP_SECONDS
            ):
                tier = COLD
            else:
                tier = WARM
            counts[tier] += 1
            previous = self.tiers.get(block_hash, WARM)
            if tier != previous:
                changes += 1
                self.tiers[block_hash] = tier
                self._trace_reclassified(
                    block_hash, previous, tier, score, now
                )
        self.stats.reclassifications += changes
        self.stats.hot_blocks = counts[HOT]
        self.stats.warm_blocks = counts[WARM]
        self.stats.cold_blocks = counts[COLD]
        tracer = self.deployment.tracer
        if tracer is not None:
            record_tier_storage(tracer, self.deployment, self, now)
        return changes

    def tier_counts(self) -> dict[str, int]:
        """Blocks per tier as of the last refresh."""
        return {
            HOT: self.stats.hot_blocks,
            WARM: self.stats.warm_blocks,
            COLD: self.stats.cold_blocks,
        }

    def tier_body_bytes(self) -> dict[str, int]:
        """Actual held body bytes per tier, network-wide (oracle count)."""
        deployment = self.deployment
        totals = {HOT: 0, WARM: 0, COLD: 0}
        store = deployment.ledger.store
        nodes = deployment.nodes
        for header in store.iter_active_headers():
            if header.is_genesis:
                continue
            block_hash = header.block_hash
            held = sum(
                1
                for node in nodes.values()
                if node.store.has_body(block_hash)
            )
            size = store.body(block_hash).body_size_bytes
            totals[self.tier_of(block_hash)] += held * size
        return totals

    # ----------------------------------------------------- shed accounting
    def note_shed(self, block_hash: Hash32, freed_bytes: int) -> None:
        """The repair engine dropped one surplus replica."""
        self.stats.replicas_shed += 1
        self.stats.bytes_shed += freed_bytes

    def note_shed_blocked(self) -> None:
        """A shed was refused by the floor / last-copy guard."""
        self.stats.sheds_blocked += 1

    def note_floor_violation(self) -> None:
        """A post-shed recount found the floor broken (must stay 0)."""
        self.stats.floor_violations += 1

    # -------------------------------------------------------------- tracing
    def _trace_reclassified(
        self,
        block_hash: Hash32,
        previous: str,
        tier: str,
        score: float,
        now: float,
    ) -> None:
        tracer = self.deployment.tracer
        if tracer is None:
            return
        tracer.instant(
            "heat_reclassified",
            self._track,
            ts=now,
            category="heat",
            args={
                "block": block_hash.hex()[:12],
                "from": previous,
                "to": tier,
                "score": round(score, 6),
            },
        )
