"""Adaptive-vs-fixed replication comparison under a Zipf read workload.

The acceptance experiment for heat-aware adaptive replication
(:mod:`repro.storage.heat`): drive two same-seed deployments — one at
fixed ``r``, one with the heat tracker + replication planner — through
an identical block stream and an identical Zipf-skewed read stream, let
the anti-entropy sweep converge placements between read batches, and
compare:

* **total ledger bytes** (the paper's headline metric): the adaptive
  deployment must store meaningfully less, because the cold tail (the
  bulk of a Zipf-read chain) drops to one in-cluster copy while only
  the thin hot head gains extras;
* **p95 query latency** (the feedback signal the ROADMAP names): it
  must not regress, because the extra hot replicas turn the most
  popular reads into local hits while cold reads still land on their
  placement-first keeper — the same first hop the fixed plan uses.

Between rounds the adaptive run is audited: every cluster must hold
every block (cross-cluster coverage) and no block may sit below its
**shed floor** — ``min(target, r, live)``, never under one copy.  A
deficit *toward* a hot target is convergence work; a hole *below* the
shed floor could only come from a bad shed, so breaches are counted
and pinned at zero.

Everything is seeded, so the whole outcome — byte totals, tier counts,
shed counters, latency ranks — is a determinism signature the test
suite and the CI smoke step pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.summary import percentile
from repro.obs.tracer import Tracer
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload


@dataclass(frozen=True)
class AdaptiveCompareConfig:
    """One seeded adaptive-vs-fixed comparison."""

    seed: int = 42
    n_nodes: int = 18
    n_clusters: int = 3
    replication: int = 2
    n_blocks: int = 16
    txs_per_block: int = 4
    #: Total reads, split evenly across the convergence rounds.
    reads: int = 150
    zipf_exponent: float = 1.1
    #: Read-batch + sweep-window rounds after production.
    rounds: int = 6
    repair_cadence: float = 5.0
    #: Optional heat-model override (``None`` = HeatConfig defaults).
    heat: "object | None" = None

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1 or self.rounds < 1:
            raise ConfigurationError("reads/rounds must be >= 1")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair_cadence must be > 0")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be > 0")


@dataclass
class AdaptiveCompareOutcome:
    """Both runs' storage bills, latency tails, and shed-safety audit."""

    config: AdaptiveCompareConfig
    fixed_bytes: int = 0
    adaptive_bytes: int = 0
    fixed_queries_completed: int = 0
    adaptive_queries_completed: int = 0
    fixed_p95_latency: float = 0.0
    adaptive_p95_latency: float = 0.0
    tier_counts: dict[str, int] = field(default_factory=dict)
    tier_body_bytes: dict[str, int] = field(default_factory=dict)
    adaptive_stats: dict[str, int] = field(default_factory=dict)
    #: Per-round audits that found a cluster missing a block entirely.
    coverage_breaches: int = 0
    #: Per-round audits that found a block below its shed floor.
    floor_breaches: int = 0
    audit_rounds: int = 0
    #: The driven deployments, for the bench harness's simulated
    #: metrics (not part of the signature).
    fixed_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )
    adaptive_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )
    tracer: Tracer | None = field(default=None, repr=False)

    @property
    def savings_fraction(self) -> float:
        """Ledger bytes saved by the adaptive run, as a fraction."""
        if self.fixed_bytes == 0:
            return 0.0
        return 1.0 - self.adaptive_bytes / self.fixed_bytes

    @property
    def latency_ok(self) -> bool:
        """Adaptive p95 query latency equal or better than fixed-r."""
        return self.adaptive_p95_latency <= self.fixed_p95_latency

    @property
    def converged_safely(self) -> bool:
        """No coverage hole or sub-floor block in any audit round."""
        return (
            self.audit_rounds > 0
            and self.coverage_breaches == 0
            and self.floor_breaches == 0
            and self.adaptive_stats.get("floor_violations", 0) == 0
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "fixed_bytes": self.fixed_bytes,
            "adaptive_bytes": self.adaptive_bytes,
            "fixed_queries_completed": self.fixed_queries_completed,
            "adaptive_queries_completed": self.adaptive_queries_completed,
            "fixed_p95_latency": self.fixed_p95_latency,
            "adaptive_p95_latency": self.adaptive_p95_latency,
            "tier_counts": dict(self.tier_counts),
            "tier_body_bytes": dict(self.tier_body_bytes),
            "adaptive_stats": dict(self.adaptive_stats),
            "coverage_breaches": self.coverage_breaches,
            "floor_breaches": self.floor_breaches,
            "audit_rounds": self.audit_rounds,
            "savings_bp": int(self.savings_fraction * 10_000),
        }


def shed_floor_met(deployment: ICIDeployment, planner, tier=None) -> bool:
    """Is every block at or above ``min(target, r, live)`` everywhere?

    The invariant a *shed* can break (capped at the base ``r``, so a
    not-yet-filled hot target — a deficit, the repair side's job — is
    not a breach).  With an archival ``tier``, archived blocks must
    instead hold ≥ ``k`` live chunks on distinct members.  Used
    round-by-round during convergence; the final audits run the
    stricter :func:`repro.sim.chaos.adaptive_floor_met` /
    :func:`repro.sim.chaos.archival_floor_met`.
    """
    from repro.sim.faults import live_members

    base = deployment.config.replication
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        if not live:
            continue
        for header in deployment.ledger.store.iter_active_headers():
            if header.is_genesis:
                continue
            block_hash = header.block_hash
            if tier is not None and tier.is_archived(
                view.cluster_id, block_hash
            ):
                if not tier.coded_floor_ok(view.cluster_id, block_hash):
                    return False
                continue
            target = planner.target_for(block_hash)
            floor = min(max(target, 1), base, len(live))
            holders = sum(
                1
                for member in live
                if deployment.nodes[member].store.has_body(block_hash)
            )
            if holders < floor:
                return False
    return True


def _drive(
    config: AdaptiveCompareConfig,
    limits: ValidationLimits,
    adaptive: bool,
    outcome: AdaptiveCompareOutcome,
) -> ICIDeployment:
    """One side of the comparison: produce, read in rounds, sweep."""
    from repro.sim.chaos import adaptive_floor_met

    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    planner = (
        deployment.enable_adaptive_replication(config.heat)
        if adaptive
        else None
    )
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    block_hashes = report.block_hashes
    # Both sides replay the *same* read sequence: the workload is a pure
    # function of its seed and the (identical) population sizes.
    reads = ZipfReadWorkload(
        ReadWorkloadConfig(
            seed=config.seed ^ 0x2EAD, exponent=config.zipf_exponent
        )
    )
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
        repair.start(cadence=config.repair_cadence)
        deployment.network.clock.run_for(config.repair_cadence * 2)
        repair.stop()
        deployment.run()
        if planner is not None:
            outcome.audit_rounds += 1
            if not all(
                deployment.cluster_holds_full_ledger(view.cluster_id)
                for view in deployment.clusters.views()
            ):
                outcome.coverage_breaches += 1
            if not shed_floor_met(deployment, planner):
                outcome.floor_breaches += 1

    completed = [
        record.completed_at - record.started_at
        for record in deployment.metrics.queries
        if record.completed_at is not None
    ]
    p95 = percentile(sorted(completed), 0.95) if completed else 0.0
    total_bytes = deployment.storage_report().total_bytes
    if planner is None:
        outcome.fixed_bytes = total_bytes
        outcome.fixed_queries_completed = len(completed)
        outcome.fixed_p95_latency = p95
    else:
        outcome.adaptive_bytes = total_bytes
        outcome.adaptive_queries_completed = len(completed)
        outcome.adaptive_p95_latency = p95
        outcome.tier_counts = planner.tier_counts()
        outcome.tier_body_bytes = planner.tier_body_bytes()
        outcome.adaptive_stats = dict(planner.as_dict())
        if not adaptive_floor_met(deployment, planner):
            # Final state must also satisfy the tier-aware floor (hot
            # targets filled, cold floors held).
            outcome.floor_breaches += 1
    return deployment


def run_adaptive_compare(
    config: AdaptiveCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> AdaptiveCompareOutcome:
    """Run the fixed-r and adaptive deployments and compare (module docs).

    With a ``tracer``, both deployments attach to it (separate track
    labels), so one trace carries the fixed and adaptive timelines side
    by side — including the adaptive run's ``heat_reclassified``
    instants and per-tier ledger-byte counters.
    """
    from repro.obs.hooks import install_tracing

    config = config or AdaptiveCompareConfig()
    outcome = AdaptiveCompareOutcome(config=config, tracer=tracer)
    for adaptive in (False, True):
        deployment = _drive(config, limits, adaptive, outcome)
        if tracer is not None:
            install_tracing(
                deployment,
                tracer,
                label="adaptive" if adaptive else "fixed",
            )
        if adaptive:
            outcome.adaptive_deployment = deployment
        else:
            outcome.fixed_deployment = deployment
    return outcome
