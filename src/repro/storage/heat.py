"""Heat-aware adaptive replication: access scoring and tier planning.

The paper fixes the in-cluster replication factor ``r`` per deployment,
which leaves cold history over-replicated and hot blocks bottlenecked on
``r`` serving replicas.  This module closes the loop the ROADMAP names:
observed access heat drives a *per-block* replication target, and the
anti-entropy engine (:mod:`repro.protocols.repair`) converges actual
placements toward it — it already adds replicas; with a planner attached
it also sheds them.

Three pieces:

* :class:`HeatTracker` — a router observer (the same hook surface the
  metrics recorder and tracing observer use).  Every delivered
  ``BLOCK_REQUEST`` (a query reaching a holder) and ``REPAIR_REQUEST``
  (a re-replication pull) counts as one access to that block.  Accesses
  accumulate into an exponentially decayed rate on **virtual time**, so
  two same-seed runs score identically on any machine.
* :class:`HeatConfig` — the scoring weights, decay half-life, and tier
  quantiles, all validated.
* :class:`ReplicationPlanner` — ranks every active block by a weighted
  (read rate, recency, size) score, classifies them by *rank quantile*
  (top slice hot, bottom slice cold, rest warm — rank-based so a flat
  score distribution cannot flip the whole chain into one tier), and
  maps tiers to replication targets: hot ``r + hot_bonus``, warm ``r``,
  cold ``max(r - cold_margin, 1)``.

The subsystem is **opt-in and dormant by default**: nothing here is
constructed unless :meth:`~repro.core.icistrategy.ICIDeployment.
enable_adaptive_replication` runs, so fixed-``r`` deployments keep
byte-identical simulated metrics (the bench baseline gate enforces it).

Shed-safety invariants (enforced by the repair engine, audited here):

* a shed never drops a cluster below ``min(target, live)`` live copies,
  and never below **one** — the last in-cluster copy is also the last
  cross-cluster copy from that cluster's point of view;
* blocks younger than :attr:`HeatConfig.warmup_seconds` are never
  classified cold (no heat evidence yet), and nothing is classified
  until the tracker has seen :attr:`HeatConfig.min_observations`
  accesses overall;
* genesis is exempt (regenerable, but it anchors every audit).

Every shed is followed by a recount of actual live holders; a recount
below the floor increments :attr:`AdaptiveStats.floor_violations` —
the endurance audit pins that counter at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.crypto.hashing import Hash32
from repro.errors import ConfigurationError
from repro.net.message import MessageKind
from repro.obs.hooks import record_tier_storage
from repro.obs.tracer import proto_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.block import BlockHeader
    from repro.net.message import Message
    from repro.net.simclock import SimClock
    from repro.node.base import BaseNode
    from repro.obs.tracer import Tracer

#: Tier labels, hottest first (also the rank order the planner assigns).
HOT = "hot"
WARM = "warm"
COLD = "cold"
TIERS = (HOT, WARM, COLD)


@dataclass(frozen=True)
class HeatConfig:
    """Scoring and tiering knobs for adaptive replication.

    Attributes:
        half_life: virtual seconds for an access's weight to halve.
        read_weight: weight of the decayed access rate in the score.
        recency_weight: weight of the time-since-last-access term.
        size_weight: weight of the (small-is-cheap) size term.
        size_scale: body bytes at which the size term reaches 0.5.
        repair_weight: heat contributed by one ``REPAIR_REQUEST`` pull
            relative to a query hit (re-requests are demand too, but
            second-hand).
        hot_quantile: blocks ranked above this score quantile are hot
            (0.9 → top 10%).
        cold_quantile: blocks ranked below this quantile are cold
            (0.7 → bottom 70%; archival chains are mostly cold).
        hot_bonus: extra replicas per cluster for hot blocks.
        cold_margin: replicas removed for cold blocks (floor-clamped
            to 1).
        warmup_seconds: a block stays at least warm this long after the
            planner first sees it.
        min_observations: no block is classified away from warm until
            the tracker has witnessed this many accesses in total.
    """

    half_life: float = 30.0
    read_weight: float = 1.0
    recency_weight: float = 0.5
    size_weight: float = 0.25
    size_scale: float = 4096.0
    repair_weight: float = 0.5
    hot_quantile: float = 0.9
    cold_quantile: float = 0.7
    hot_bonus: int = 2
    cold_margin: int = 1
    warmup_seconds: float = 10.0
    min_observations: int = 8

    def __post_init__(self) -> None:
        if self.half_life <= 0:
            raise ConfigurationError("half_life must be > 0")
        for name in ("read_weight", "recency_weight", "size_weight"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.size_scale <= 0:
            raise ConfigurationError("size_scale must be > 0")
        if self.repair_weight < 0:
            raise ConfigurationError("repair_weight must be >= 0")
        if not 0.0 < self.hot_quantile <= 1.0:
            raise ConfigurationError("hot_quantile must be in (0, 1]")
        if not 0.0 <= self.cold_quantile < 1.0:
            raise ConfigurationError("cold_quantile must be in [0, 1)")
        if self.cold_quantile >= self.hot_quantile:
            raise ConfigurationError(
                "cold_quantile must be below hot_quantile"
            )
        if self.hot_bonus < 0 or self.cold_margin < 0:
            raise ConfigurationError("hot_bonus/cold_margin must be >= 0")
        if self.warmup_seconds < 0:
            raise ConfigurationError("warmup_seconds must be >= 0")
        if self.min_observations < 0:
            raise ConfigurationError("min_observations must be >= 0")


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

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports and determinism signatures)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _BlockHeat:
    """Decayed access accumulator for one block."""

    __slots__ = ("rate", "last_access", "accesses")

    def __init__(self) -> None:
        self.rate = 0.0
        self.last_access = 0.0
        self.accesses = 0


class HeatTracker:
    """Router observer accumulating per-block access heat.

    Installed with ``router.add_observer`` next to the metrics recorder;
    it draws no randomness, sends nothing, and schedules nothing, so
    attaching it cannot perturb the simulation schedule.
    """

    def __init__(
        self, clock: "SimClock", config: HeatConfig | None = None
    ) -> None:
        self.config = config or HeatConfig()
        self._clock = clock
        self._heat: dict[Hash32, _BlockHeat] = {}
        self.total_accesses = 0

    # -------------------------------------------------------- router hooks
    def on_send(self, message: "Message") -> None:
        """Unused (observer protocol)."""

    def on_deliver(self, node: "BaseNode", message: "Message") -> None:
        """Count query hits and repair pulls as block accesses."""
        kind = message.kind
        if kind is MessageKind.BLOCK_REQUEST:
            # payload = (request_id, block_hash)
            self.note_access(message.payload[1])
        elif kind is MessageKind.REPAIR_REQUEST:
            self.note_access(
                message.payload[1], weight=self.config.repair_weight
            )

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
        heat.accesses += 1
        self.total_accesses += 1

    def _decay(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 1.0
        return math.exp(-elapsed * math.log(2.0) / self.config.half_life)

    def rate(self, block_hash: Hash32, now: float | None = None) -> float:
        """The decayed access rate of one block at ``now``."""
        heat = self._heat.get(block_hash)
        if heat is None:
            return 0.0
        if now is None:
            now = self._clock.now
        return heat.rate * self._decay(now - heat.last_access)

    def accesses(self, block_hash: Hash32) -> int:
        """Raw (undecayed) access count of one block."""
        heat = self._heat.get(block_hash)
        return heat.accesses if heat is not None else 0

    def score(
        self, block_hash: Hash32, size_bytes: int, now: float | None = None
    ) -> float:
        """Weighted heat score: read rate + recency + small-size bonus."""
        config = self.config
        if now is None:
            now = self._clock.now
        heat = self._heat.get(block_hash)
        if heat is None:
            rate = recency = 0.0
        else:
            decay = self._decay(now - heat.last_access)
            rate = heat.rate * decay
            recency = decay
        size_term = config.size_scale / (config.size_scale + size_bytes)
        return (
            config.read_weight * rate
            + config.recency_weight * recency
            + config.size_weight * size_term
        )


class ReplicationPlanner:
    """Tier classification and per-block replication targets.

    Refreshed at the start of every anti-entropy sweep; between
    refreshes :meth:`target_for` and :meth:`read_plan` answer from the
    last classification, so the repair engine and the query engine act
    on one consistent view per sweep.
    """

    def __init__(
        self,
        deployment,
        tracker: HeatTracker,
        config: HeatConfig | None = None,
    ) -> None:
        self.deployment = deployment
        self.tracker = tracker
        self.config = config or tracker.config
        self.stats = AdaptiveStats()
        self.tiers: dict[Hash32, str] = {}
        self._first_seen: dict[Hash32, float] = {}
        self._track = proto_track("heat")
        self._tracer: "Tracer | None" = None

    # ------------------------------------------------------------- targets
    def target_for(self, block_hash: Hash32) -> int:
        """Replication target for one block under its current tier."""
        base = self.deployment.config.replication
        tier = self.tiers.get(block_hash, WARM)
        if tier == HOT:
            return base + self.config.hot_bonus
        if tier == COLD:
            return max(base - self.config.cold_margin, 1)
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
        deterministic tie-break), the top ``1 - hot_quantile`` slice is
        hot, the bottom ``cold_quantile`` slice is cold.  Guards: hot
        needs a nonzero observed rate, cold needs the block to be past
        warm-up and the tracker past ``min_observations``.
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
        hot_count = int(n * (1.0 - self.config.hot_quantile))
        cold_count = int(n * self.config.cold_quantile)
        observed = self.tracker.total_accesses >= self.config.min_observations
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
                >= self.config.warmup_seconds
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
        if self._tracer is not None:
            record_tier_storage(self._tracer, self.deployment, self, now)
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

    def as_dict(self) -> Mapping[str, int]:
        """Stats view for signatures and reports."""
        return self.stats.as_dict()

    # -------------------------------------------------------------- tracing
    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Mirror reclassifications and tier bytes (``None`` detaches)."""
        self._tracer = tracer

    def _trace_reclassified(
        self,
        block_hash: Hash32,
        previous: str,
        tier: str,
        score: float,
        now: float,
    ) -> None:
        if self._tracer is None:
            return
        self._tracer.instant(
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
