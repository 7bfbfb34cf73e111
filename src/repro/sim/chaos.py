"""Chaos scenarios: seeded end-to-end runs under the fault layer.

A chaos run drives the full ICIStrategy stack through hostile weather —
message drop/duplicate/delay rates, mid-run crashes and stalls, optional
partitions — then heals the network, reconciles every replica, and
checks the paper's core claim survived: **each cluster again holds the
complete ledger**.  Everything is derived from one seed, so the same
configuration reproduces identical fault schedules, retry/timeout
counters, and outcomes run after run (the chaos test suite pins this).

Shape of a run (:func:`run_chaos`):

1. produce the first half of the block stream under message-level faults;
2. crash/stall deterministically-chosen victims (removed from the
   proposer rotation — a crashed proposer would strand its block) and,
   optionally, cut a minority partition;
3. produce the second half degraded — the engines' retry probes carry
   delivery as far as live replicas allow;
4. heal, restore the rotation, and :func:`reconcile` every node (header
   catch-up, assigned-body refetch through the query path, finality
   re-kick via the verification probes);
5. exercise a join (bootstrap retries) and a batch of queries under the
   still-lossy link rates;
6. audit per-cluster integrity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.hooks import install_tracing
from repro.obs.summary import percentile, summarize
from repro.obs.tracer import Tracer
from repro.protocols.reliability import RetryPolicy
from repro.sim.audit import diversity_met, floor_met
from repro.sim.churn import (
    ChurnConfig,
    ChurnDriver,
    ChurnOutcome,
    make_schedule,
)
from repro.sim.faults import FaultConfig, FaultPlan, PartitionWindow
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload


@dataclass(frozen=True)
class _StormConfig:
    """What chaos and endurance scenarios both configure: population,
    fault weather, and the opt-in features (all seeded from ``seed``)."""

    seed: int = 0
    n_nodes: int = 16
    n_clusters: int = 4
    replication: int = 2
    n_blocks: int = 8
    txs_per_block: int = 2
    drop_rate: float = 0.2
    duplicate_rate: float = 0.05
    delay_rate: float = 0.05
    crash_count: int = 1
    partition: bool = False
    queries: int = 8
    #: Kademlia-style DHT overlay (:mod:`repro.dht`): queries resolve
    #: holders via FIND_VALUE, joins bootstrap by self-lookup, repair
    #: digests route to XOR-nearest peers, the heal phase refreshes
    #: routing tables and republishes provider records, and the audit
    #: adds a table-liveness census plus a full lookup batch.  Off by
    #: default: non-DHT signatures must stay byte-identical (golden
    #: pins).
    dht: bool = False
    #: Failure-domain awareness (:mod:`repro.net.domains`): placement
    #: spreads replicas across zones, the mid-run outage becomes a full
    #: **zone outage** (every live member of one deterministically-drawn
    #: zone crashes at once, replacing the sampled victims), the
    #: anti-entropy sweep restores zone diversity as well as copy count,
    #: and the audit adds a post-heal domain-diversity check.  Off by
    #: default: domain-oblivious signatures must stay byte-identical
    #: (golden pins).
    domains: bool = False
    #: Zones in the failure-domain map (domain runs only).
    zones: int = 4

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("runs need at least 2 blocks")
        if self.crash_count < 0 or self.queries < 0:
            raise ConfigurationError("counts must be >= 0")
        if self.domains and self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")

    def fault_config(self) -> FaultConfig:
        """The message-level fault weather this scenario runs under."""
        return FaultConfig(
            seed=self.seed,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            delay_rate=self.delay_rate,
        )


@dataclass(frozen=True)
class ChaosConfig(_StormConfig):
    """One seeded chaos scenario (all randomness derives from ``seed``)."""

    stall_count: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stall_count < 0:
            raise ConfigurationError("counts must be >= 0")


@dataclass
class _StormOutcome:
    """What chaos and endurance outcomes share: the fault/reliability
    counters, the probe tallies, the per-feature audits, the verdict."""

    config: _StormConfig
    blocks_produced: int = 0
    partitioned: list[int] = field(default_factory=list)
    fault_stats: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)
    queries_attempted: int = 0
    queries_completed: int = 0
    queries_degraded: int = 0
    cluster_integrity: dict[int, bool] = field(default_factory=dict)
    #: DHT overlay counters + audit (``DHTStats.as_dict()`` merged with
    #: the table census and the audit lookup batch); empty on non-DHT
    #: runs, and only a non-empty dict joins ``signature()`` — so
    #: enabling a feature cannot move the golden pins of runs without it.
    dht: dict[str, int] = field(default_factory=dict)
    #: Failure-domain census + audit (zone killed, victim count,
    #: placement spread deficit, diversity repairs, post-heal diversity
    #: flag); empty on domain-oblivious runs, same opt-in discipline.
    domains: dict[str, int] = field(default_factory=dict)
    virtual_seconds: float = 0.0
    events_processed: int = 0
    #: Per-kind tracked-send counts (``RouterStats.sends``); the
    #: denominator for the report renderers' degraded-percentage
    #: column.  Not signed — the per-kind retry/timeout/degraded
    #: counters above already pin the same stream.
    sends: dict[str, int] = field(default_factory=dict)
    #: Per-kind delivery-latency percentiles (virtual time) from the
    #: run's trace; quantifies degradation beyond the counters.  Not
    #: signed — floats derived from the same deterministic stream the
    #: counters pin.
    latency_percentiles: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: The run's tracer (``--trace`` exports it).
    tracer: Tracer | None = field(default=None, repr=False)

    @property
    def integrity_restored(self) -> bool:
        """Did every cluster end the run holding the full ledger?"""
        return bool(self.cluster_integrity) and all(
            self.cluster_integrity.values()
        )

    @property
    def passed(self) -> bool:
        """The run's verdict — what the CLI exit code reports.

        Integrity restored (on endurance runs that includes the tier-
        and code-aware floor) and, for each enabled feature, its own
        audit: every post-heal DHT lookup resolved its block's holder
        record; every block's live copies span distinct zones again
        (up to the live-zone count).
        """
        return (
            self.integrity_restored
            and self.dht.get("audit_lookups_ok")
            == self.dht.get("audit_lookups")
            and (not self.domains or bool(self.domains["diversity_met"]))
        )


@dataclass
class ChaosOutcome(_StormOutcome):
    """What one chaos run did and whether the network came back whole."""

    finalized_blocks: int = 0
    crashed: list[int] = field(default_factory=list)
    stalled: list[int] = field(default_factory=list)
    refetched_bodies: int = 0
    bootstrap_complete: bool = False
    bootstrap_bodies_unavailable: int = 0

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed).

        Covers every counter the fault and reliability layers produced;
        the chaos tests assert two same-seed runs match exactly.
        """
        signature = {
            "fault_stats": dict(self.fault_stats),
            "retries": dict(self.retries),
            "timeouts": dict(self.timeouts),
            "degraded": dict(self.degraded),
            "blocks_produced": self.blocks_produced,
            "finalized_blocks": self.finalized_blocks,
            "crashed": list(self.crashed),
            "stalled": list(self.stalled),
            "refetched_bodies": self.refetched_bodies,
            "queries_completed": self.queries_completed,
            "queries_degraded": self.queries_degraded,
            "virtual_seconds": self.virtual_seconds,
            "events_processed": self.events_processed,
        }
        if self.dht:
            signature["dht"] = dict(self.dht)
        if self.domains:
            signature["domains"] = dict(self.domains)
        return signature


#: Backoff pacing chaos runs install on the query tracker.
CHAOS_QUERY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=1.5, max_timeout=12.0, rounds=3
)


def build_scenario(
    config,
    limits: ValidationLimits,
    faults: FaultConfig,
    *,
    adaptive: bool = False,
    archival: bool = False,
    dht: bool = False,
    zones: int = 0,
    outage_map=None,
):
    """One seeded deployment under a fault plan, features switched on.

    ``config`` supplies ``seed``/``n_nodes``/``n_clusters``/
    ``replication``.  Features are enabled before production (and
    before the plan installs), so every non-genesis placement is
    computed by the spread-aware policy and provider records publish
    organically as blocks finalize.  ``zones`` turns failure-domain
    awareness on; whole-zone outages resolve their victims through
    ``outage_map`` (how a domain-oblivious deployment loses the same
    physical zone as an aware one), else through the deployment's own
    map.  Returns ``(deployment, runner, injector)``.
    """
    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    if adaptive or archival:
        deployment.enable_adaptive_replication()
    if archival:
        deployment.enable_archival_tier()
    if dht:
        deployment.enable_dht()
    if zones:
        deployment.enable_domain_awareness(zones=zones)
    if outage_map is None:
        outage_map = deployment.domains
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    injector = FaultPlan(config=faults).install(deployment.network)
    deployment.query.set_retry_policy(CHAOS_QUERY_POLICY)
    if outage_map is not None:
        injector.bind_domains(
            lambda zone: outage_map.members_of_zone(
                zone, deployment.nodes.keys()
            )
        )
    return deployment, runner, injector


def probe_reads(deployment: ICIDeployment, reads) -> tuple[int, int, int]:
    """Issue ``(requester, block_hash)`` reads one at a time, draining
    after each; returns ``(attempted, completed, degraded)``."""
    attempted = completed = degraded = 0
    for requester, block_hash in reads:
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        attempted += 1
        completed += record.completed_at is not None
        degraded += bool(record.degraded)
    return attempted, completed, degraded


def uniform_reads(rng: random.Random, requesters, block_hashes, count: int):
    """``count`` seeded uniform ``(requester, block_hash)`` draws."""
    for _ in range(count):
        yield rng.choice(requesters), rng.choice(block_hashes)


def run_chaos(
    config: ChaosConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> ChaosOutcome:
    """Run one seeded chaos scenario end to end (see module docs).

    Every run carries a tracer (a caller-supplied one, or an internal
    default-capacity one): the delivery-latency percentiles in the
    outcome come from its deliver spans.  Tracing is observation-only —
    it draws no randomness and schedules nothing, so the determinism
    signature is unchanged by it (the chaos suite pins this).
    """
    config = config or ChaosConfig()
    if tracer is None:
        tracer = Tracer()
    deployment, runner, injector = build_scenario(
        config,
        limits,
        config.fault_config(),
        zones=config.zones if config.domains else 0,
    )
    if config.dht:
        # After the plan installs, unlike endurance runs: the
        # enable-time publish of genesis provider records rides the
        # fault weather (the DHT smoke report and E20's chaos leg pin
        # that message stream).
        deployment.enable_dht()
    install_tracing(deployment, tracer)
    outcome = ChaosOutcome(config=config, tracer=tracer)
    rng = random.Random(config.seed ^ 0xC4A05)

    # Phase 1: first half of the stream under message-level faults only.
    first_half = max(1, config.n_blocks // 2)
    with tracer.span("produce:clean"):
        report = runner.produce_blocks(
            first_half, txs_per_block=config.txs_per_block
        )

    # Phase 2: mid-run outages.  Victims come only from clusters that can
    # spare a member (mirrors the churn driver's minimum), and leave the
    # proposer rotation while down — a dead proposer's block would exist
    # only in the oracle ledger, unrecoverable by any replica.
    zone_killed = -1
    if config.domains:
        # Correlated outage: one whole zone goes down at once instead
        # of independently-sampled victims — the blast radius the
        # spread-aware placement exists to survive.
        zone_killed = rng.randrange(config.zones)
        victims = list(injector.crash_domain(zone_killed))
        outcome.crashed = victims
    else:
        victims = _pick_victims(
            deployment, rng, config.crash_count + config.stall_count
        )
        outcome.crashed = victims[: config.crash_count]
        outcome.stalled = victims[config.crash_count :]
        for victim in outcome.crashed:
            injector.crash(victim)
        for victim in outcome.stalled:
            injector.stall(victim)
    if config.partition:
        outcome.partitioned = _cut_minority(deployment, injector, victims)
    down = outcome.crashed + outcome.stalled + outcome.partitioned
    for victim in down:
        runner.schedule.remove(victim)

    # Phase 3: the degraded half.
    with tracer.span("produce:degraded"):
        report2 = runner.produce_blocks(
            config.n_blocks - first_half,
            txs_per_block=config.txs_per_block,
        )
    outcome.blocks_produced = (
        report.blocks_produced + report2.blocks_produced
    )

    # Phase 4: heal and reconcile.
    with tracer.span("heal:reconcile"):
        injector.heal()
        for victim in down:
            runner.schedule.add(victim)
        outcome.refetched_bodies = reconcile(deployment)
        if config.dht:
            _heal_overlay(deployment)

    # Phase 5: a join and a query batch, still under lossy links.
    with tracer.span("join:queries"):
        join = deployment.join_new_node()
        deployment.run()
        outcome.bootstrap_complete = join.complete
        outcome.bootstrap_bodies_unavailable = len(join.bodies_unavailable)
        if join.complete:
            runner.schedule.add(join.node_id)
        block_hashes = report.block_hashes + report2.block_hashes
        (
            outcome.queries_attempted,
            outcome.queries_completed,
            outcome.queries_degraded,
        ) = probe_reads(
            deployment,
            uniform_reads(
                rng, sorted(deployment.nodes), block_hashes, config.queries
            ),
        )

    # Phase 6: audit.
    outcome.finalized_blocks = deployment.total_finalized_blocks()
    _audit(
        deployment, outcome, injector, rng, block_hashes, zone_killed, victims
    )
    return outcome


def _heal_overlay(deployment: ICIDeployment) -> None:
    """Overlay heal: tracked pings evict contacts that died (or left)
    in the storm, then a forced republish rebuilds provider records so
    post-storm lookups see fresh holder sets."""
    deployment.dht.refresh_all()
    deployment.run()
    deployment.dht.republish_all()
    deployment.run()


def _audit(
    deployment: ICIDeployment,
    outcome: _StormOutcome,
    injector,
    rng: random.Random,
    block_hashes,
    zone_killed: int,
    outage_victims: list[int],
) -> None:
    """The end-of-run audit chaos and endurance share.

    Per-cluster integrity (:mod:`repro.sim.audit`), the fault and
    reliability counters, then each enabled feature's own audit; the
    clock and latency capture come last because the DHT lookup batch
    still moves them.
    """
    for view in deployment.clusters.views():
        outcome.cluster_integrity[view.cluster_id] = (
            deployment.cluster_holds_full_ledger(view.cluster_id)
        )
    outcome.fault_stats = injector.stats.as_dict()
    stats = deployment.metrics.router_stats
    outcome.retries = dict(stats.retries)
    outcome.timeouts = dict(stats.timeouts)
    outcome.degraded = dict(stats.degraded)
    outcome.sends = dict(stats.sends)
    live = deployment.network.live_members(sorted(deployment.nodes))
    if outcome.config.dht:
        _audit_dht(deployment, outcome, rng, block_hashes, live)
    if outcome.config.domains:
        domains = deployment.domains
        # Integer-valued so the fingerprint stays json-stable.
        # ``spread_deficit`` counts the placements that could not reach
        # full zone spread — the audited fallback, surfaced so a
        # correlated blast radius is visible instead of silent.
        outcome.domains = {
            "zones": domains.zones,
            "zone_killed": zone_killed,
            "outage_victims": len(outage_victims),
            "live_zones": len(domains.zones_of(live)),
            "spread_deficit": deployment.placement.domain_spread_deficit,
            "diversity_repairs": deployment.repair.diversity_repairs,
            "diversity_met": int(diversity_met(deployment)),
        }
    outcome.virtual_seconds = deployment.network.now
    outcome.events_processed = deployment.network.clock.processed
    outcome.latency_percentiles = summarize(
        outcome.tracer
    ).latency_percentiles()


def _audit_dht(
    deployment: ICIDeployment, outcome, rng: random.Random, block_hashes, live
) -> None:
    """Overlay audit: table-liveness census plus a full lookup batch.

    Runs one iterative FIND_VALUE per produced block from a random live
    requester and counts hits — under the acceptance chaos weather
    (10% drop + a crash) every lookup must still succeed, which is what
    :attr:`_StormOutcome.passed` and the E20 chaos leg pin.  The census
    and the engine's own counters land on ``outcome.dht``.
    """
    from repro.dht.idspace import block_key

    dht = deployment.dht
    if not live:
        outcome.dht = {**dht.stats.as_dict(), **dht.audit_tables()}
        return
    lookups_ok = 0
    for block_hash in block_hashes:
        lookup = dht.lookup_value(rng.choice(live), block_key(block_hash))
        deployment.run()
        if lookup.value:
            lookups_ok += 1
    outcome.dht = {
        **dht.stats.as_dict(),
        **dht.audit_tables(),
        "audit_lookups": len(block_hashes),
        "audit_lookups_ok": lookups_ok,
    }


def reconcile(
    deployment: ICIDeployment, refetch_bodies: bool = True
) -> int:
    """Repair every replica after a heal; returns bodies refetched.

    Three passes, each drained to quiescence:

    1. **Header catch-up** — nodes that missed gossiped headers (their
       links were cut) index the canonical headers in height order, which
       also reopens any verification round they never saw.
    2. **Body refetch** — every assigned holder missing its body pulls it
       through the ordinary query path; under faults the query engine
       re-adopts the body into the holder's assignment.  Endurance runs
       pass ``refetch_bodies=False`` to leave this to the anti-entropy
       sweep (the thing under test) instead of the query path.
    3. **Finality re-kick** — members still stuck re-enter the
       verification engine's probe chain, which replays certificates or
       re-broadcasts attestations until the round closes.
    """
    headers = list(deployment.ledger.store.iter_active_headers())
    for node_id in sorted(deployment.nodes):
        node = deployment.nodes[node_id]
        for header in headers:
            if not node.store.has_header(header.block_hash):
                deployment.dissemination.note_header(node, header)
    deployment.run()

    refetched = 0
    if refetch_bodies:
        for view in deployment.clusters.views():
            for header in headers:
                if header.is_genesis:
                    continue
                holders = deployment.holders_in_cluster(
                    header, view.cluster_id
                )
                for holder in holders:
                    node = deployment.nodes[holder]
                    if node.store.has_body(header.block_hash):
                        continue
                    deployment.retrieve_block(holder, header.block_hash)
                    refetched += 1
        deployment.run()

    verification = deployment.verification
    for node_id in sorted(deployment.nodes):
        node = deployment.nodes[node_id]
        for header in headers:
            if header.is_genesis:
                continue
            if not node.is_finalized(header.block_hash):
                verification.ensure_round(node, header)
    deployment.run()
    return refetched


@dataclass(frozen=True)
class EnduranceConfig(_StormConfig):
    """One seeded endurance scenario: churn × faults × anti-entropy.

    Extends the chaos shape with a sustained :class:`ChurnSchedule`
    (drawn from the same seed) applied *while* the fault weather is
    active, an auto-expiring partition window, and the anti-entropy
    engine sweeping at ``repair_cadence`` throughout.
    """

    n_nodes: int = 24
    n_clusters: int = 3
    n_blocks: int = 12
    partition: bool = True
    zones: int = 3
    join_rate: float = 0.15
    leave_rate: float = 0.1
    crash_rate: float = 0.1
    repair_cadence: float = 5.0
    #: Heat-aware adaptive replication (:mod:`repro.storage.heat`).
    #: When on, a Zipf-skewed read stream runs through the storm so heat
    #: is non-uniform, the anti-entropy sweep sheds as well as repairs,
    #: and the audit checks *per-tier* replica floors.  Off by default:
    #: the fixed-r path must stay byte-identical (golden pins).
    adaptive: bool = False
    #: Coded archival tier (:mod:`repro.storage.coded`).  Implies the
    #: adaptive path (the tier consumes the planner's cold signal): cold
    #: blocks transition to k-of-n Reed–Solomon chunks, queries decode
    #: them on demand, and the audit additionally holds the **coded
    #: floor** (≥ k live chunks per archived block, never co-located).
    #: Off by default: adaptive-without-archival runs must stay
    #: byte-identical (golden pins).
    archival: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair cadence must be > 0")


@dataclass
class EnduranceOutcome(_StormOutcome):
    """What one endurance run did and whether self-healing converged."""

    joins: int = 0
    leaves: int = 0
    churn_crashes: int = 0
    skipped_events: int = 0
    outage_crashed: list[int] = field(default_factory=list)
    #: The anti-entropy engine's counters (``RepairStats.as_dict()``).
    repair: dict[str, int] = field(default_factory=dict)
    #: Blocks departures handed off to the sweep after exhausted retries.
    deferred_blocks: int = 0
    #: Virtual seconds from first deficit detection to restored copy.
    time_to_repair: dict[str, float] = field(default_factory=dict)
    heal_rounds: int = 0
    #: :func:`repro.sim.audit.floor_met` after healing (strict: tier-
    #: and code-aware on adaptive/archival runs).
    replica_floor_met: bool = False
    #: Adaptive-replication counters (``AdaptiveStats.as_dict()`` plus
    #: tier counts and storm reads); empty on fixed-r runs, same opt-in
    #: signature discipline as ``dht``.
    adaptive: dict[str, int] = field(default_factory=dict)
    #: Archival-tier counters (``ArchivalStats.as_dict()``); empty
    #: unless the coded tier ran, same opt-in discipline.
    archival: dict[str, int] = field(default_factory=dict)
    #: Network-wide ledger bytes at audit time (reports; not signed).
    storage_total_bytes: int = 0
    #: The healed deployment, for independent post-run auditing (the
    #: property suite re-derives coverage rather than trusting the
    #: audit flags above).  Not part of the signature.
    deployment: "ICIDeployment | None" = field(default=None, repr=False)

    @property
    def integrity_restored(self) -> bool:
        """Full ledger per cluster *and* the replication floor met."""
        return super().integrity_restored and self.replica_floor_met

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        signature = {
            "blocks_produced": self.blocks_produced,
            "joins": self.joins,
            "leaves": self.leaves,
            "churn_crashes": self.churn_crashes,
            "skipped_events": self.skipped_events,
            "outage_crashed": list(self.outage_crashed),
            "partitioned": list(self.partitioned),
            "fault_stats": dict(self.fault_stats),
            "retries": dict(self.retries),
            "timeouts": dict(self.timeouts),
            "degraded": dict(self.degraded),
            "repair": dict(self.repair),
            "deferred_blocks": self.deferred_blocks,
            "time_to_repair": dict(self.time_to_repair),
            "heal_rounds": self.heal_rounds,
            "queries_completed": self.queries_completed,
            "queries_degraded": self.queries_degraded,
            "cluster_integrity": dict(self.cluster_integrity),
            "replica_floor_met": self.replica_floor_met,
            "virtual_seconds": self.virtual_seconds,
            "events_processed": self.events_processed,
        }
        for feature in ("adaptive", "archival", "dht", "domains"):
            counters = getattr(self, feature)
            if counters:
                signature[feature] = dict(counters)
        return signature


#: The endurance storm's fixed shape: block intervals the mid-run
#: partition lasts, virtual seconds churn settles after each event, the
#: cap on post-heal sweep rounds, and the adaptive-mode Zipf reads issued
#: per produced block.
PARTITION_BLOCKS = 3
SETTLE_SECONDS = 10.0
MAX_HEAL_ROUNDS = 40
STORM_READS_PER_BLOCK = 4


def run_endurance(
    config: EnduranceConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> EnduranceOutcome:
    """Sustained churn under fault weather with anti-entropy sweeping.

    Shape of a run:

    1. **Storm** — produce the block stream with the fault weather on and
       the anti-entropy engine sweeping; the seeded churn schedule fires
       between blocks (joins bootstrap, leaves repair-then-exit, crashes
       trigger survivor re-replication), an outage crashes
       ``crash_count`` extra members a third of the way in, and an
       auto-expiring minority partition opens at the halfway mark.
    2. **Heal** — faults off, header catch-up + finality re-kick
       (``reconcile`` *without* the query-path body refetch: restoring
       bodies is the sweep's job here), then bounded sweep rounds until
       the repair counters go quiet.
    3. **Probe** — a query batch under the still-lossy link rates.
    4. **Audit** — per-cluster full-ledger integrity plus the stronger
       floor (:func:`repro.sim.audit.floor_met`): every active block
       holds ``min(target, live)`` live replicas — or its coded floor —
       in every cluster.
    """
    config = config or EnduranceConfig()
    if tracer is None:
        tracer = Tracer()
    deployment, runner, injector = build_scenario(
        config,
        limits,
        config.fault_config(),
        adaptive=config.adaptive,
        archival=config.archival,
        dht=config.dht,
        zones=config.zones if config.domains else 0,
    )
    install_tracing(deployment, tracer)
    planner = deployment.replication_planner
    tier = deployment.archival
    reads = None
    storm_reads = 0
    if planner is not None:
        reads = ZipfReadWorkload(
            ReadWorkloadConfig(seed=config.seed ^ 0x2EAD)
        )
    outcome = EnduranceOutcome(config=config, tracer=tracer)
    rng = random.Random(config.seed ^ 0xE17D)

    churn_config = ChurnConfig(
        join_rate=config.join_rate,
        leave_rate=config.leave_rate,
        crash_rate=config.crash_rate,
        seed=config.seed,
    )
    by_block: dict[int, list] = {}
    for event in make_schedule(churn_config, config.n_blocks):
        by_block.setdefault(event.after_block, []).append(event)
    driver = ChurnDriver(
        deployment, runner, churn_config, settle_seconds=SETTLE_SECONDS
    )
    churn = ChurnOutcome()

    repair = deployment.repair
    repair.start(cadence=config.repair_cadence)
    outage_block = max(1, config.n_blocks // 3)
    partition_block = max(2, config.n_blocks // 2)
    block_hashes: list = []
    zone_killed = -1

    # Phase 1: the storm.
    with tracer.span("endurance:storm"):
        for block_index in range(1, config.n_blocks + 1):
            report = runner.produce_blocks(
                1,
                txs_per_block=config.txs_per_block,
                drain_between_blocks=False,
                drain_at_end=False,
            )
            block_hashes.extend(report.block_hashes)
            churn.blocks_produced += 1
            if block_index == outage_block and config.crash_count:
                if config.domains:
                    # Correlated outage: a full zone instead of the
                    # independently-sampled victims.
                    zone_killed = rng.randrange(config.zones)
                    outcome.outage_crashed = list(
                        injector.crash_domain(zone_killed)
                    )
                else:
                    outcome.outage_crashed = _pick_victims(
                        deployment, rng, config.crash_count
                    )
                    for victim in outcome.outage_crashed:
                        injector.crash(victim)
                for victim in outcome.outage_crashed:
                    runner.schedule.remove(victim)
            if block_index == partition_block and config.partition:
                outcome.partitioned = _cut_minority(
                    deployment,
                    injector,
                    outcome.outage_crashed,
                    duration=PARTITION_BLOCKS * runner.block_interval,
                )
                for victim in outcome.partitioned:
                    runner.schedule.remove(victim)
            for event in by_block.get(block_index, []):
                driver.apply(event, churn)
            if reads is not None and block_hashes:
                # The Zipf read stream heats the tip while history cools;
                # replies land whenever the weather lets them through.
                node_ids = sorted(deployment.nodes)
                for requester, block_hash in reads.reads(
                    block_hashes, node_ids, STORM_READS_PER_BLOCK
                ):
                    node = deployment.nodes[requester]
                    if not node.store.has_header(block_hash):
                        continue  # gossip hasn't reached it yet
                    deployment.retrieve_block(requester, block_hash)
                    storm_reads += 1

    outcome.blocks_produced = churn.blocks_produced
    outcome.joins = churn.joins
    outcome.leaves = churn.leaves
    outcome.churn_crashes = churn.crashes
    outcome.skipped_events = churn.skipped_events

    # Phase 2: heal, catch headers up, and let the sweep converge.
    with tracer.span("endurance:heal"):
        injector.heal()
        for victim in outcome.outage_crashed + outcome.partitioned:
            if victim in deployment.nodes:
                runner.schedule.add(victim)
        # reconcile() drains to quiescence internally — the sweep must be
        # parked while it runs, then resumed for the convergence rounds.
        repair.stop()
        reconcile(deployment, refetch_bodies=False)
        repair.start(cadence=config.repair_cadence)
        last = None
        quiet = 0
        for _ in range(MAX_HEAL_ROUNDS):
            deployment.network.clock.run_for(config.repair_cadence)
            outcome.heal_rounds += 1
            # Quiet means the repair counters stopped moving — and, where
            # those tiers run, shedding and the coded tier (archives,
            # chunk re-homes, thaws) stopped too.
            snapshot = (
                repair.stats.under_replicated,
                repair.stats.blocks_re_replicated,
                planner.stats.replicas_shed if planner is not None else 0,
                (
                    tier.stats.blocks_archived
                    + tier.stats.chunks_repaired
                    + tier.stats.blocks_thawed
                    if tier is not None
                    else 0
                ),
            )
            if snapshot == last and repair.idle:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            last = snapshot
        repair.stop()
        deployment.run()
        if config.dht:
            # The sweep hook kept records fresh through the convergence
            # rounds; the explicit pass covers clusters whose membership
            # churned.
            _heal_overlay(deployment)

    # Phase 3: a query batch, still under lossy links.
    with tracer.span("endurance:queries"):
        node_ids = sorted(deployment.nodes)
        if reads is not None:
            probes = (
                reads.next_read(block_hashes, node_ids)
                for _ in range(config.queries)
            )
        else:
            probes = uniform_reads(
                rng, node_ids, block_hashes, config.queries
            )
        (
            outcome.queries_attempted,
            outcome.queries_completed,
            outcome.queries_degraded,
        ) = probe_reads(deployment, probes)

    # Phase 4: audit.
    outcome.replica_floor_met = floor_met(deployment)
    outcome.storage_total_bytes = deployment.storage_report().total_bytes
    if planner is not None:
        outcome.adaptive = dict(planner.as_dict())
        outcome.adaptive["storm_reads"] = storm_reads
    if tier is not None:
        outcome.archival = dict(tier.as_dict())
        outcome.archival["archived_blocks"] = tier.archived_blocks
        outcome.archival["chunk_bytes"] = tier.total_chunk_bytes
        # Coded chunks live beside the replicas the report counts.
        outcome.storage_total_bytes += tier.total_chunk_bytes
    outcome.repair = repair.stats.as_dict()
    outcome.deferred_blocks = sum(
        len(report.deferred_blocks)
        for report in deployment.metrics.departures
    )
    if repair.repair_times:
        times = sorted(repair.repair_times)
        outcome.time_to_repair = {
            "p50": percentile(times, 0.50),
            "p95": percentile(times, 0.95),
        }
    _audit(
        deployment,
        outcome,
        injector,
        rng,
        block_hashes,
        zone_killed,
        outcome.outage_crashed,
    )
    outcome.deployment = deployment
    return outcome


def archival_cluster_integrity(
    deployment: ICIDeployment, tier, cluster_id: int
) -> bool:
    """The spelling ``perfbench/`` (frozen) calls: integrity is one
    definition now, and it reads ``tier`` off the deployment itself."""
    return deployment.cluster_holds_full_ledger(cluster_id)


def _pick_victims(
    deployment: ICIDeployment, rng: random.Random, count: int
) -> list[int]:
    """Deterministically sample outage victims from spare-capacity clusters.

    Candidates come from the fault layer's ``Network.live_members`` view, so an
    outage can never target a node that is already crashed or stalled
    (injector.crash on a dead node would double-count it, and a churn
    composition would otherwise raise).  On a clean network every member
    is live, so the candidate list — and the RNG draw — is unchanged.
    """
    if count == 0:
        return []
    minimum = max(deployment.config.replication + 1, 2)
    network = deployment.network
    candidates: list[int] = []
    for view in deployment.clusters.views():
        live = network.live_members(view.members)
        if len(live) > minimum:
            candidates.extend(live)
    count = min(count, len(candidates))
    return rng.sample(sorted(candidates), count) if count else []


def _cut_minority(
    deployment: ICIDeployment,
    injector,
    exclude: list[int],
    duration: float | None = None,
) -> list[int]:
    """Partition a below-quorum minority of the largest cluster.

    The cut stays under the Byzantine threshold (⌊(m−1)/3⌋) so the
    majority side keeps finalizing; the isolated members catch up at
    heal + reconcile time.  With ``duration`` the window self-expires
    after that many virtual seconds (endurance runs); otherwise it lasts
    until an explicit ``heal()``.
    """
    views = sorted(
        deployment.clusters.views(), key=lambda v: (-v.size, v.cluster_id)
    )
    view = views[0]
    eligible = [m for m in view.members if m not in exclude]
    cut = max((len(view.members) - 1) // 3, 1)
    minority = sorted(eligible)[:cut]
    if not minority:
        return []
    others = [
        node_id
        for node_id in deployment.nodes
        if node_id not in minority
    ]
    now = deployment.network.now
    injector.partition(
        PartitionWindow(
            side_a=frozenset(minority),
            side_b=frozenset(others),
            start=now,
            end=float("inf") if duration is None else now + duration,
        )
    )
    return minority
