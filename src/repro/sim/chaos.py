"""Storm scenarios: seeded end-to-end runs under the fault layer.

One driver, :func:`run_endurance`, takes the full ICIStrategy stack
through hostile weather — message drop/duplicate/delay rates, seeded
churn, a mid-run outage of crashed and stalled members (or a whole
zone), an optional partition window — with the anti-entropy sweep
repairing throughout, then heals the network and checks the paper's
core claim survived: **each cluster again holds the complete ledger**,
at the replica floor.  ``repro endurance`` runs it; ``repro chaos`` runs
it under :data:`CHAOS_PRESET` (no churn, no partition).  Everything is
derived from one seed, so the same configuration reproduces identical
fault schedules, retry/timeout counters, and outcomes run after run
(the storm test suites pin this).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.audit import diversity_met, floor_met
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.hooks import install_tracing
from repro.obs.summary import percentile, summarize
from repro.obs.tracer import Tracer
from repro.protocols.reliability import RetryPolicy
from repro.sim.churn import (
    ChurnConfig,
    ChurnDriver,
    ChurnOutcome,
    make_schedule,
    spare_members,
)
from repro.sim.faults import FaultConfig, FaultInjector, PartitionWindow
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload


@dataclass(frozen=True)
class EnduranceConfig:
    """One seeded storm: population, fault weather, churn, anti-entropy
    and the opt-in features (all randomness derives from ``seed``).

    A sustained :class:`ChurnSchedule` (drawn from the same seed) fires
    *while* the fault weather is active, an outage crashes
    ``crash_count`` and stalls ``stall_count`` members mid-run, an
    auto-expiring partition window opens, and the anti-entropy engine
    sweeps at ``repair_cadence`` throughout.  :data:`CHAOS_PRESET` is
    the same storm with churn and the partition off.
    """

    seed: int = 0
    n_nodes: int = 24
    n_clusters: int = 3
    replication: int = 2
    n_blocks: int = 12
    txs_per_block: int = 2
    drop_rate: float = 0.2
    duplicate_rate: float = 0.05
    delay_rate: float = 0.05
    crash_count: int = 1
    #: Outage members stalled (up but unresponsive) instead of crashed;
    #: drawn after the crash victims, so a run without stalls draws as
    #: one without the field.  A zone outage replaces both counts.
    stall_count: int = 0
    partition: bool = True
    queries: int = 8
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
        if self.n_blocks < 2:
            raise ConfigurationError("runs need at least 2 blocks")
        if min(self.crash_count, self.stall_count, self.queries) < 0:
            raise ConfigurationError("counts must be >= 0")
        if self.domains and self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair cadence must be > 0")

    def fault_config(self) -> FaultConfig:
        """The message-level fault weather this scenario runs under."""
        return FaultConfig(
            seed=self.seed,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            delay_rate=self.delay_rate,
        )


#: ``repro chaos``: the fault weather and one mid-run outage on a small
#: population (16 nodes in 4 clusters, r = 2, 8 blocks, 4 zones), with
#: no churn and no partition window.
CHAOS_PRESET = dict(
    n_nodes=16,
    n_clusters=4,
    replication=2,
    n_blocks=8,
    zones=4,
    partition=False,
    join_rate=0.0,
    leave_rate=0.0,
    crash_rate=0.0,
)


@dataclass
class EnduranceOutcome:
    """What one storm did and whether self-healing converged."""

    #: The flat counter dicts every run signs, by field name.
    _COUNTERS = ("fault_stats", "repair", "time_to_repair")
    #: Per-feature counter dicts, signed only when the feature ran.
    _FEATURES = ("adaptive", "archival", "domains")

    config: EnduranceConfig
    blocks_produced: int = 0
    joins: int = 0
    leaves: int = 0
    churn_crashes: int = 0
    skipped_events: int = 0
    outage_crashed: list[int] = field(default_factory=list)
    #: Not signed: ``fault_stats`` counts the stalls.
    outage_stalled: list[int] = field(default_factory=list)
    partitioned: list[int] = field(default_factory=list)
    fault_stats: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)
    #: Per-kind tracked-send counts (``RouterStats.sends``); the
    #: denominator for the report renderer's degraded-percentage
    #: column.  Not signed — the per-kind retry/timeout/degraded
    #: counters above already pin the same stream.
    sends: dict[str, int] = field(default_factory=dict)
    queries_attempted: int = 0
    queries_completed: int = 0
    queries_degraded: int = 0
    cluster_integrity: dict[int, bool] = field(default_factory=dict)
    #: The anti-entropy engine's counters (``asdict(RepairStats)``).
    repair: dict[str, int] = field(default_factory=dict)
    #: Blocks departures handed off to the sweep after exhausted retries.
    deferred_blocks: int = 0
    #: Virtual seconds from first deficit detection to restored copy.
    time_to_repair: dict[str, float] = field(default_factory=dict)
    heal_rounds: int = 0
    #: Did the heal rounds go quiet before ``MAX_HEAL_ROUNDS``?  Not
    #: signed: ``heal_rounds`` already pins it.
    heal_converged: bool = False
    #: :func:`repro.core.audit.floor_met` after healing (strict: tier-
    #: and code-aware on adaptive/archival runs).
    replica_floor_met: bool = False
    #: Adaptive-replication counters (``asdict(AdaptiveStats)`` plus
    #: tier counts and storm reads); empty on fixed-r runs, and only a
    #: non-empty dict joins ``signature()`` — so enabling a feature
    #: cannot move the golden pins of runs without it.
    adaptive: dict[str, int] = field(default_factory=dict)
    #: Archival-tier counters (``asdict(ArchivalStats)``); empty
    #: unless the coded tier ran, same opt-in discipline.
    archival: dict[str, int] = field(default_factory=dict)
    #: Failure-domain census + audit (zone killed, victim count,
    #: placement spread deficit, diversity repairs, post-heal diversity
    #: flag); empty on domain-oblivious runs, same opt-in discipline.
    domains: dict[str, int] = field(default_factory=dict)
    #: Network-wide ledger bytes at audit time (reports; not signed).
    storage_total_bytes: int = 0
    virtual_seconds: float = 0.0
    events_processed: int = 0
    #: The run's tracer (``--trace`` exports it).
    tracer: Tracer | None = field(default=None, repr=False)
    #: The healed deployment, for independent post-run auditing (the
    #: property suite re-derives coverage rather than trusting the
    #: audit flags above).  Not part of the signature.
    deployment: "ICIDeployment | None" = field(default=None, repr=False)

    @property
    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-kind delivery-latency percentiles (virtual time) from the
        run's trace; quantifies degradation beyond the counters.

        Not signed — floats derived from the same deterministic stream
        the counters pin — and summarized on each read, since only the
        report renderer reads them.  Empty without a tracer.
        """
        if self.tracer is None:
            return {}
        return summarize(self.tracer).latency_percentiles()

    @property
    def integrity_restored(self) -> bool:
        """Every cluster holds the full ledger *and* the replication
        floor is met."""
        return (
            bool(self.cluster_integrity)
            and all(self.cluster_integrity.values())
            and self.replica_floor_met
        )

    @property
    def passed(self) -> bool:
        """The run's verdict — what the CLI exit code reports.

        Integrity restored (including the tier- and code-aware floor)
        and, on domain runs, every block's live copies span distinct
        zones again (up to the live-zone count).
        """
        return self.integrity_restored and (
            not self.domains or bool(self.domains["diversity_met"])
        )

    def counters(self) -> dict[str, dict]:
        """Every flat counter dict, by field name: the ones every run
        signs, then each feature's when non-empty — so enabling a
        feature cannot move the golden pins of runs without it.

        ``signature()`` signs exactly these and the storm summary
        renders one ``## <name>`` section per non-empty dict, so a
        counter added to a stats dataclass is signed and reported with
        no other edit.
        """
        counters = {
            name: dict(getattr(self, name)) for name in self._COUNTERS
        }
        for name in self._FEATURES:
            if getattr(self, name):
                counters[name] = dict(getattr(self, name))
        return counters

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "blocks_produced": self.blocks_produced,
            "joins": self.joins,
            "leaves": self.leaves,
            "churn_crashes": self.churn_crashes,
            "skipped_events": self.skipped_events,
            "outage_crashed": list(self.outage_crashed),
            "partitioned": list(self.partitioned),
            "retries": dict(self.retries),
            "timeouts": dict(self.timeouts),
            "degraded": dict(self.degraded),
            "deferred_blocks": self.deferred_blocks,
            "heal_rounds": self.heal_rounds,
            "queries_completed": self.queries_completed,
            "queries_degraded": self.queries_degraded,
            "cluster_integrity": dict(self.cluster_integrity),
            "replica_floor_met": self.replica_floor_met,
            "virtual_seconds": self.virtual_seconds,
            "events_processed": self.events_processed,
            **self.counters(),
        }


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
    zones: int = 0,
    outage_map=None,
):
    """One seeded deployment under a fault plan, features switched on.

    ``config`` supplies ``seed``/``n_nodes``/``n_clusters``/
    ``replication``.  Features are enabled before production (and
    before the plan installs), so every non-genesis placement is
    computed by the spread-aware policy.  ``zones`` turns failure-domain
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
    if zones:
        deployment.enable_domain_awareness(zones=zones)
    if outage_map is None:
        outage_map = deployment.domains
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    injector = FaultInjector.install(deployment.network, faults)
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


def reconcile(deployment: ICIDeployment) -> None:
    """Catch every replica up after a heal; restoring bodies is the
    anti-entropy sweep's job.

    Two passes, each drained to quiescence:

    1. **Header catch-up** — nodes that missed gossiped headers (their
       links were cut) index the canonical headers in height order, which
       also reopens any verification round they never saw.
    2. **Finality re-kick** — members still stuck re-enter the
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

    verification = deployment.verification
    for node_id in sorted(deployment.nodes):
        node = deployment.nodes[node_id]
        for header in headers:
            if header.is_genesis:
                continue
            if not node.is_finalized(header.block_hash):
                verification.ensure_round(node, header)
    deployment.run()


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
       ``crash_count`` and stalls ``stall_count`` extra members a third
       of the way in (or downs one whole zone on domain runs), and an
       auto-expiring minority partition opens at the halfway mark.
    2. **Heal** — faults off, :func:`reconcile` (header catch-up +
       finality re-kick), then bounded sweep rounds until the repair
       counters go quiet.
    3. **Probe** — a query batch under the still-lossy link rates.
    4. **Audit** — per-cluster full-ledger integrity plus the stronger
       floor (:func:`repro.core.audit.floor_met`): every active block
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
    outage_count = config.crash_count + config.stall_count
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
            if block_index == outage_block and outage_count:
                if config.domains:
                    # Correlated outage: a full zone instead of the
                    # independently-sampled victims.
                    zone_killed = rng.randrange(config.zones)
                    outcome.outage_crashed = list(
                        injector.crash_domain(zone_killed)
                    )
                else:
                    victims = _pick_victims(deployment, rng, outage_count)
                    outcome.outage_crashed = victims[: config.crash_count]
                    outcome.outage_stalled = victims[config.crash_count :]
                    for victim in outcome.outage_crashed:
                        injector.crash(victim)
                    for victim in outcome.outage_stalled:
                        injector.stall(victim)
                for victim in outcome.outage_crashed + outcome.outage_stalled:
                    runner.schedule.remove(victim)
            if block_index == partition_block and config.partition:
                outcome.partitioned = _cut_minority(
                    deployment,
                    injector,
                    outcome.outage_crashed + outcome.outage_stalled,
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
        down = outcome.outage_crashed + outcome.outage_stalled
        for victim in down + outcome.partitioned:
            if victim in deployment.nodes:
                runner.schedule.add(victim)
        # reconcile() drains to quiescence internally — the sweep must be
        # parked while it runs, then resumed for the convergence rounds.
        repair.stop()
        reconcile(deployment)
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
                    outcome.heal_converged = True
                    break
            else:
                quiet = 0
            last = snapshot
        repair.stop()
        deployment.run()

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
        outcome.adaptive = asdict(planner.stats)
        outcome.adaptive["storm_reads"] = storm_reads
    if tier is not None:
        outcome.archival = asdict(tier.stats)
        outcome.archival["archived_blocks"] = tier.archived_blocks
        outcome.archival["chunk_bytes"] = tier.total_chunk_bytes
        # Coded chunks live beside the replicas the report counts.
        outcome.storage_total_bytes += tier.total_chunk_bytes
    outcome.repair = asdict(repair.stats)
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
    for view in deployment.clusters.views():
        outcome.cluster_integrity[view.cluster_id] = (
            deployment.cluster_holds_full_ledger(view.cluster_id)
        )
    outcome.fault_stats = asdict(injector.stats)
    stats = deployment.metrics.router_stats
    outcome.retries = dict(stats.retries)
    outcome.timeouts = dict(stats.timeouts)
    outcome.degraded = dict(stats.degraded)
    outcome.sends = dict(stats.sends)
    if config.domains:
        domains = deployment.domains
        live = deployment.network.live_members(sorted(deployment.nodes))
        # Integer-valued so the fingerprint stays json-stable.
        # ``spread_deficit`` counts the placements that could not reach
        # full zone spread — the audited fallback, surfaced so a
        # correlated blast radius is visible instead of silent.
        outcome.domains = {
            "zones": domains.zones,
            "zone_killed": zone_killed,
            "outage_victims": len(outcome.outage_crashed),
            "live_zones": len(domains.zones_of(live)),
            "spread_deficit": deployment.placement.domain_spread_deficit,
            "diversity_repairs": deployment.repair.diversity_repairs,
            "diversity_met": int(diversity_met(deployment)),
        }
    outcome.virtual_seconds = deployment.network.now
    outcome.events_processed = deployment.network.clock.processed
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
    candidates = spare_members(deployment)
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
