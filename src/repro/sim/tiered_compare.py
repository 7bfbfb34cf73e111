"""Storage-tier A/B comparisons under a Zipf read workload (E18, E19).

The acceptance experiments for the two storage tiers built on top of
fixed-``r`` replication.  Each drives two same-seed deployments — a
**baseline** arm and a **treatment** arm with one more tier enabled —
through an identical block stream and an identical Zipf-skewed read
stream, lets the anti-entropy sweep converge placements between read
batches, and compares the bills:

* **E18** (:data:`E18`, fixed-``r`` vs heat-aware adaptive replication,
  :mod:`repro.storage.heat`): the adaptive arm must store meaningfully
  fewer **total ledger bytes** — the cold tail, the bulk of a Zipf-read
  chain, drops to one in-cluster copy while only the thin hot head
  gains extras — at equal-or-better **p95 query latency**, because the
  extra hot replicas turn the most popular reads into local hits while
  cold reads still land on their placement-first keeper.
* **E19** (:data:`E19`, adaptive vs adaptive + Reed–Solomon archival
  tier, :mod:`repro.storage.coded`): the coded arm must store fewer
  **total stored bytes** (replicas plus chunks) — every cold block
  drops from its adaptive floor of full replicas to ``n/k`` body-sizes
  of chunks — with every query still completing: cold reads fall
  through the replica failover tail into a lazy ``k``-chunk decode,
  reported as read amplification, not failure.  It runs at ``r = 3``
  so the equal-durability framing is honest: the adaptive cold floor
  is then two replicas per cluster, and the default 3+1 code likewise
  tolerates one holder loss, at ``4/3 ≈ 1.33×`` the body size.

Between rounds the treatment arm is audited (:mod:`repro.core.audit`):
every cluster must be able to produce every block — held, or decodable
from ≥ ``k`` live chunks — and no block may sit below its **shed
floor**.  A deficit *toward* a hot target is convergence work; a hole
*below* the shed floor could only come from a bad shed, so breaches are
counted and pinned at zero; the final state must also meet the strict
floor.

Everything is seeded, so the whole outcome — byte totals, tier counts,
shed and archival counters, latency ranks — is a determinism signature
the test suite pins.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.audit import floor_met
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.summary import percentile
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload


@dataclass(frozen=True)
class Arm:
    """One side of a comparison: a name and the tiers it enables.

    The name prefixes the arm's signature keys (``<name>_bytes``, …).
    """

    name: str
    adaptive: bool = False
    archival: bool = False


@dataclass(frozen=True)
class TieredCompareConfig:
    """One seeded baseline-vs-treatment comparison."""

    #: ``(baseline, treatment)``; the treatment arm is the audited one.
    arms: tuple[Arm, Arm]
    seed: int = 42
    n_nodes: int = 18
    n_clusters: int = 3
    replication: int = 2
    n_blocks: int = 16
    txs_per_block: int = 4
    #: Total reads, split evenly across the convergence rounds.
    reads: int = 150
    #: Read-batch + sweep-window rounds after production.
    rounds: int = 6

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1 or self.rounds < 1:
            raise ConfigurationError("reads/rounds must be >= 1")


#: E18: fixed-``r`` vs heat-aware adaptive replication.
E18 = TieredCompareConfig(
    arms=(Arm("fixed"), Arm("adaptive", adaptive=True))
)
#: E19: adaptive-only vs adaptive + archival coding, at ``r = 3`` so
#: both cold floors tolerate one holder loss (equal durability).
E19 = TieredCompareConfig(
    arms=(
        Arm("adaptive", adaptive=True),
        Arm("coded", adaptive=True, archival=True),
    ),
    replication=3,
)


@dataclass
class ArmResult:
    """One arm's storage bill and query outcomes."""

    #: Replica bytes plus coded chunk bytes.
    bytes: int = 0
    queries_completed: int = 0
    p95_latency: float = 0.0
    #: The driven deployment, for the bench harness's simulated
    #: metrics (not part of the signature).
    deployment: ICIDeployment | None = field(default=None, repr=False)


@dataclass
class TieredCompareOutcome:
    """Both arms' bills plus the treatment arm's tier census and audit."""

    config: TieredCompareConfig
    #: Arm name -> result, in run order (baseline first).
    arms: dict[str, ArmResult] = field(default_factory=dict)
    tier_counts: dict[str, int] = field(default_factory=dict)
    tier_body_bytes: dict[str, int] = field(default_factory=dict)
    adaptive_stats: dict[str, int] = field(default_factory=dict)
    archival_stats: dict[str, int] = field(default_factory=dict)
    archived_blocks: int = 0
    chunk_bytes: int = 0
    #: Per-round audits that found a cluster unable to produce a block
    #: (no replica and no decodable chunk set).
    coverage_breaches: int = 0
    #: Per-round audits that found a block below its shed floor, plus
    #: one if the final state misses the strict floor.
    floor_breaches: int = 0
    audit_rounds: int = 0

    @property
    def baseline(self) -> ArmResult:
        """The first declared arm's result."""
        return self.arms[self.config.arms[0].name]

    @property
    def treatment(self) -> ArmResult:
        """The second declared arm's result (the audited one)."""
        return self.arms[self.config.arms[1].name]

    @property
    def savings_fraction(self) -> float:
        """Bytes the treatment arm saved over the baseline, as a fraction."""
        if self.baseline.bytes == 0:
            return 0.0
        return 1.0 - self.treatment.bytes / self.baseline.bytes

    @property
    def latency_ok(self) -> bool:
        """Treatment p95 query latency equal or better than baseline."""
        return self.treatment.p95_latency <= self.baseline.p95_latency

    @property
    def reads_ok(self) -> bool:
        """The treatment arm completed every query the baseline did."""
        return (
            self.treatment.queries_completed
            >= self.baseline.queries_completed
        )

    @property
    def converged_safely(self) -> bool:
        """No coverage hole, sub-floor block, bad shed or failed decode."""
        return (
            self.audit_rounds > 0
            and self.coverage_breaches == 0
            and self.floor_breaches == 0
            and self.adaptive_stats.get("floor_violations", 0) == 0
            and self.archival_stats.get("failed_reconstructions", 0) == 0
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        signature = {
            "tier_counts": dict(self.tier_counts),
            "coverage_breaches": self.coverage_breaches,
            "floor_breaches": self.floor_breaches,
            "audit_rounds": self.audit_rounds,
            "savings_bp": int(self.savings_fraction * 10_000),
        }
        for name, arm in self.arms.items():
            signature[f"{name}_bytes"] = arm.bytes
            signature[f"{name}_queries_completed"] = arm.queries_completed
            signature[f"{name}_p95_latency"] = arm.p95_latency
        if self.config.arms[1].archival:
            signature["archival_stats"] = dict(self.archival_stats)
            signature["archived_blocks"] = self.archived_blocks
            signature["chunk_bytes"] = self.chunk_bytes
        else:
            signature["tier_body_bytes"] = dict(self.tier_body_bytes)
            signature["adaptive_stats"] = dict(self.adaptive_stats)
        return signature


def _drive(
    config: TieredCompareConfig,
    limits: ValidationLimits,
    arm: Arm,
    outcome: TieredCompareOutcome,
) -> ArmResult:
    """One arm: produce, read in rounds, sweep; the treatment is audited."""
    audited = arm is config.arms[1]
    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    if arm.adaptive:
        deployment.enable_adaptive_replication()
    if arm.archival:
        deployment.enable_archival_tier()
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    block_hashes = report.block_hashes
    # Both arms replay the *same* read sequence: the workload is a pure
    # function of its seed and the (identical) population sizes.
    reads = ZipfReadWorkload(ReadWorkloadConfig(seed=config.seed ^ 0x2EAD))
    node_ids = sorted(deployment.nodes)
    repair = deployment.repair
    per_round, remainder = divmod(config.reads, config.rounds)
    for round_index in range(config.rounds):
        batch = per_round + (1 if round_index < remainder else 0)
        for requester, block_hash in reads.reads(
            block_hashes, node_ids, batch
        ):
            deployment.retrieve_block(requester, block_hash)
        deployment.run()
        repair.start()
        deployment.network.clock.run_for(repair.cadence * 2)
        repair.stop()
        deployment.run()
        if audited:
            outcome.audit_rounds += 1
            if not all(
                deployment.cluster_holds_full_ledger(view.cluster_id)
                for view in deployment.clusters.views()
            ):
                outcome.coverage_breaches += 1
            if not floor_met(deployment, shed_only=True):
                outcome.floor_breaches += 1

    completed = [
        record.completed_at - record.started_at
        for record in deployment.metrics.queries
        if record.completed_at is not None
    ]
    planner = deployment.replication_planner
    tier = deployment.archival
    if audited:
        outcome.tier_counts = planner.tier_counts()
        outcome.tier_body_bytes = planner.tier_body_bytes()
        outcome.adaptive_stats = asdict(planner.stats)
        if tier is not None:
            outcome.archival_stats = asdict(tier.stats)
            outcome.archived_blocks = tier.archived_blocks
            outcome.chunk_bytes = tier.total_chunk_bytes
        if not floor_met(deployment):
            # Final state must also satisfy the strict floor (hot
            # targets filled, cold and coded floors held).
            outcome.floor_breaches += 1
    return ArmResult(
        bytes=deployment.storage_report().total_bytes
        + (tier.total_chunk_bytes if tier is not None else 0),
        queries_completed=len(completed),
        p95_latency=(
            percentile(sorted(completed), 0.95) if completed else 0.0
        ),
        deployment=deployment,
    )


def run_tiered_compare(
    config: TieredCompareConfig,
    limits: ValidationLimits = DEFAULT_LIMITS,
) -> TieredCompareOutcome:
    """Run both declared arms and compare (see module docs)."""
    outcome = TieredCompareOutcome(config=config)
    for arm in config.arms:
        outcome.arms[arm.name] = _drive(config, limits, arm, outcome)
    return outcome
