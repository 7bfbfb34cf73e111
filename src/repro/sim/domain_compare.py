"""Domain-aware vs domain-oblivious placement under a zone outage (E21).

The failure-domain subsystem's acceptance experiment
(:mod:`repro.net.domains`): two seeded deployments replay an identical
clean block stream, then lose **one whole zone at once** — the same
physical victim set in both arms, resolved through a shared
:class:`~repro.net.domains.FailureDomainMap` so the outage is identical
regardless of which arm is placement-aware:

* **aware** — :meth:`~repro.core.icistrategy.ICIDeployment.
  enable_domain_awareness` swaps in
  :class:`~repro.storage.placement.DomainSpreadPlacement`, so every
  block's ``r`` replicas span distinct zones and a zone outage can
  remove at most one copy per cluster;
* **oblivious** — the default rendezvous placement, which stacks both
  replicas of a ``C(z, r)``-predictable fraction of blocks inside the
  killed zone.

Each arm measures, in order: **blocks lost** (cluster/block pairs with
zero live in-cluster copies, the census taken the instant the zone
dies), a seeded **read batch under the outage** (live requesters, the
chaos retry policy, cross-cluster failover allowed — the aware arm must
complete every read), then a heal followed by bounded anti-entropy
sweeps measuring **time to restored zone diversity**.  Crashed members
keep their disks (the fault layer's crash model), so the oblivious arm
recovers *coverage* at heal time — but its stacked blocks stay
single-zone forever: with no domain map there is no mechanism to
re-spread them, and the diversity clock runs out at the sweep cap.

Everything derives from one seed; :meth:`DomainCompareOutcome.signature`
is the determinism fingerprint the test suite pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.net.domains import FailureDomainMap
from repro.sim.audit import diversity_met, uncovered_pairs
from repro.sim.chaos import build_scenario, probe_reads, uniform_reads
from repro.sim.faults import FaultConfig

#: The two measured arms, in run (and report) order.
ARMS = ("aware", "oblivious")


@dataclass(frozen=True)
class DomainCompareConfig:
    """One seeded aware-vs-oblivious zone-outage comparison."""

    seed: int = 42
    n_nodes: int = 32
    n_clusters: int = 4
    replication: int = 2
    #: Failure domains; the outage kills every member of one of them.
    zones: int = 2
    n_blocks: int = 12
    txs_per_block: int = 2
    #: Seeded reads issued while the zone is down (live requesters).
    reads: int = 16
    repair_cadence: float = 5.0
    #: Post-heal sweep budget for the diversity clock; an arm that has
    #: not restored zone spread by then records ``-1`` (never).
    max_heal_rounds: int = 6

    def __post_init__(self) -> None:
        if self.n_clusters < 2:
            raise ConfigurationError("compare runs need >= 2 clusters")
        if self.n_nodes < 2 * self.n_clusters:
            raise ConfigurationError("every cluster needs >= 2 members")
        if self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")
        if self.replication < 2:
            raise ConfigurationError(
                "spread needs a replication factor >= 2"
            )
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1:
            raise ConfigurationError("reads must be >= 1")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair_cadence must be > 0")
        if self.max_heal_rounds < 1:
            raise ConfigurationError("max_heal_rounds must be >= 1")


@dataclass
class DomainCompareOutcome:
    """Both arms' loss/read/diversity bills under the identical outage."""

    config: DomainCompareConfig
    #: The killed zone (one seeded draw, shared by both arms).
    zone_killed: int = -1
    #: Victims of the outage (identical across arms by construction).
    victims: list[int] = field(default_factory=list)
    #: One all-integer row per arm (keys: :data:`ARMS`): ``blocks_lost,
    #: reads_attempted, reads_completed, reads_failed, reads_degraded,
    #: repairs_scheduled, blocks_re_replicated, repairs_degraded,
    #: diversity_repairs, spread_deficit, rounds_to_diversity``.
    arms: dict[str, dict[str, int]] = field(default_factory=dict)
    #: The driven deployments per arm, for the bench harness's
    #: simulated metrics (not part of the signature).
    deployments: dict[str, ICIDeployment] = field(
        default_factory=dict, repr=False
    )

    @property
    def aware_lossless(self) -> bool:
        """The headline claim: spread placement rides out a zone loss.

        Zero cluster/block pairs without a live in-cluster copy, and
        every read issued during the outage completed.
        """
        row = self.arms.get("aware")
        return (
            row is not None
            and row["blocks_lost"] == 0
            and row["reads_failed"] == 0
        )

    @property
    def oblivious_exposed(self) -> bool:
        """The control: stacked placements measurably lose coverage."""
        row = self.arms.get("oblivious")
        return row is not None and row["blocks_lost"] > 0

    @property
    def diversity_restored(self) -> bool:
        """The aware arm ended every block zone-diverse within budget."""
        row = self.arms.get("aware")
        return row is not None and row["rounds_to_diversity"] >= 0

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "zone_killed": self.zone_killed,
            "victims": list(self.victims),
            "arms": {name: dict(row) for name, row in self.arms.items()},
            "aware_lossless": self.aware_lossless,
            "oblivious_exposed": self.oblivious_exposed,
            "diversity_restored": self.diversity_restored,
        }


def _run_arm(
    config: DomainCompareConfig,
    aware: bool,
    limits: ValidationLimits,
) -> tuple[dict[str, int], int, list[int], ICIDeployment]:
    """Drive one arm: produce clean, kill a zone, read, heal, sweep."""
    # The physical topology: a standalone map with the same striping
    # (one pure function of the node id), so both arms crash the
    # identical node set and are judged against the same zones — the
    # oblivious arm has no map of its own.
    topology = FailureDomainMap(zones=config.zones)
    # Clean weather: the injector exists for its outage machinery (and
    # for the query engine's failover tail), but drops nothing.
    deployment, runner, injector = build_scenario(
        config,
        limits,
        FaultConfig(seed=config.seed),
        zones=config.zones if aware else 0,
        outage_map=topology,
    )
    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    deployment.run()

    # The outage: one seeded zone draw, then the whole zone at once.
    rng = random.Random(config.seed ^ 0xD0A1)
    zone_killed = rng.randrange(config.zones)
    victims = list(injector.crash_domain(zone_killed))
    blocks_lost = uncovered_pairs(deployment)

    # Reads while the zone is down: live requesters, seeded pairs.
    live = deployment.network.live_members(sorted(deployment.nodes))
    attempted, completed, degraded = probe_reads(
        deployment,
        uniform_reads(rng, live, report.block_hashes, config.reads),
    )

    # Heal, then bounded sweeps until zone diversity is back.  Crashed
    # members kept their disks, so coverage returns with them; what the
    # sweeps must restore is *spread*, which only the aware arm can.
    injector.heal()
    repair = deployment.repair
    repair.start(cadence=config.repair_cadence)
    rounds_to_diversity = -1
    for sweep_round in range(config.max_heal_rounds + 1):
        if diversity_met(deployment, topology):
            rounds_to_diversity = sweep_round
            break
        deployment.network.clock.run_for(config.repair_cadence)
    repair.stop()
    deployment.run()

    row = {
        "blocks_lost": blocks_lost,
        "reads_attempted": attempted,
        "reads_completed": completed,
        "reads_failed": attempted - completed,
        "reads_degraded": degraded,
        "repairs_scheduled": repair.stats.repairs_scheduled,
        "blocks_re_replicated": repair.stats.blocks_re_replicated,
        "repairs_degraded": repair.stats.repairs_degraded,
        "diversity_repairs": repair.diversity_repairs,
        "spread_deficit": getattr(
            deployment.placement, "domain_spread_deficit", 0
        ),
        "rounds_to_diversity": rounds_to_diversity,
    }
    return row, zone_killed, victims, deployment


def run_domain_compare(
    config: DomainCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
) -> DomainCompareOutcome:
    """Run both arms under the identical zone outage (see module docs)."""
    config = config or DomainCompareConfig()
    outcome = DomainCompareOutcome(config=config)
    for name in ARMS:
        row, zone_killed, victims, deployment = _run_arm(
            config, aware=(name == "aware"), limits=limits
        )
        outcome.arms[name] = row
        outcome.deployments[name] = deployment
        if outcome.zone_killed < 0:
            outcome.zone_killed = zone_killed
            outcome.victims = victims
        else:
            # The comparison is only fair if the outage was identical.
            assert zone_killed == outcome.zone_killed
            assert victims == outcome.victims
    return outcome
