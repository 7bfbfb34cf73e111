"""Churn workloads: joins, graceful leaves, and crashes over time.

Real networks lose and gain members continuously; the strategy's claims
only matter if intra-cluster integrity survives that.  A
:class:`ChurnSchedule` draws a deterministic event sequence from
configured rates, and :class:`ChurnDriver` interleaves it with block
production on an ICI deployment, collecting what each event cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from repro.core.icistrategy import ICIDeployment
from repro.errors import ClusteringError, ConfigurationError, StorageError
from repro.sim.runner import ScenarioRunner


class ChurnKind(Enum):
    """What happens to the population."""

    JOIN = "join"
    LEAVE = "leave"     # graceful: repairs before departure
    CRASH = "crash"     # abrupt: survivors repair after the fact


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change, scheduled after a given block height."""

    after_block: int
    kind: ChurnKind


@dataclass(frozen=True)
class ChurnConfig:
    """Rates are events per produced block (expectation)."""

    join_rate: float = 0.1
    leave_rate: float = 0.05
    crash_rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for rate in (self.join_rate, self.leave_rate, self.crash_rate):
            if rate < 0:
                raise ConfigurationError("churn rates must be >= 0")


def make_schedule(config: ChurnConfig, n_blocks: int) -> list[ChurnEvent]:
    """Draw a deterministic event list for an ``n_blocks`` run."""
    rng = random.Random(config.seed)
    events: list[ChurnEvent] = []
    for block in range(1, n_blocks + 1):
        for kind, rate in (
            (ChurnKind.JOIN, config.join_rate),
            (ChurnKind.LEAVE, config.leave_rate),
            (ChurnKind.CRASH, config.crash_rate),
        ):
            if rng.random() < rate:
                events.append(ChurnEvent(after_block=block, kind=kind))
    return events


@dataclass
class ChurnOutcome:
    """Aggregate cost of a churn-endurance run."""

    blocks_produced: int = 0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    skipped_events: int = 0
    bootstrap_bytes: int = 0
    repair_bytes: int = 0
    lost_blocks: int = 0
    integrity_violations: int = 0
    population_history: list[int] = field(default_factory=list)


class ChurnDriver:
    """Interleaves block production with scheduled membership churn."""

    def __init__(
        self,
        deployment: ICIDeployment,
        runner: ScenarioRunner,
        config: ChurnConfig | None = None,
        settle_seconds: float | None = None,
    ) -> None:
        self.deployment = deployment
        self.runner = runner
        self.config = config or ChurnConfig()
        self._rng = random.Random(self.config.seed ^ 0x5A5A)
        # Settle mode (endurance runs): the anti-entropy sweep keeps
        # rescheduling itself, so a full drain would never return —
        # advance a bounded virtual-time window after each event instead
        # and audit integrity at the end of the run, not per event
        # (transient mid-repair deficits are the expected state).
        self.settle_seconds = settle_seconds

    def run(self, n_blocks: int, txs_per_block: int = 4) -> ChurnOutcome:
        """Produce ``n_blocks`` while applying the drawn churn schedule.

        After every event the driver checks intra-cluster integrity of
        the affected cluster and counts violations (expected to be zero
        for r ≥ 2 or parity-protected deployments).
        """
        schedule = make_schedule(self.config, n_blocks)
        by_block: dict[int, list[ChurnEvent]] = {}
        for event in schedule:
            by_block.setdefault(event.after_block, []).append(event)

        outcome = ChurnOutcome()
        for block_index in range(1, n_blocks + 1):
            self.runner.produce_blocks(1, txs_per_block=txs_per_block)
            outcome.blocks_produced += 1
            for event in by_block.get(block_index, []):
                self.apply(event, outcome)
            outcome.population_history.append(self.deployment.node_count)
        return outcome

    # ------------------------------------------------------------- events
    def apply(self, event: ChurnEvent, outcome: ChurnOutcome) -> None:
        """Apply one churn event, tallying it on ``outcome``."""
        if event.kind is ChurnKind.JOIN:
            self._apply_join(outcome)
        else:
            self._apply_departure(event.kind, outcome)

    def _settle(self) -> None:
        """Let in-flight protocol traffic progress after an event."""
        if self.settle_seconds is None:
            self.deployment.run()
        else:
            self.deployment.network.clock.run_for(self.settle_seconds)

    def _apply_join(self, outcome: ChurnOutcome) -> None:
        report = self.deployment.join_new_node()
        self._settle()
        if not report.complete:
            outcome.skipped_events += 1
            return
        outcome.joins += 1
        outcome.bootstrap_bytes += report.total_bytes
        self._check_integrity(report.cluster_id, outcome)
        # New members join the proposer rotation immediately.
        self.runner.schedule.add(report.node_id)

    def _apply_departure(
        self, kind: ChurnKind, outcome: ChurnOutcome
    ) -> None:
        victim = self._pick_victim()
        if victim is None:
            outcome.skipped_events += 1
            return
        try:
            if kind is ChurnKind.LEAVE:
                report = self.deployment.leave_node(victim)
            else:
                report = self.deployment.repair_after_crash(victim)
        except (ClusteringError, StorageError):
            # StorageError: removing the victim would empty its cluster
            # (possible when faults already felled the other members) —
            # degrade to a skipped event rather than abort the run.
            outcome.skipped_events += 1
            return
        self._settle()
        if kind is ChurnKind.LEAVE:
            outcome.leaves += 1
        else:
            outcome.crashes += 1
        outcome.repair_bytes += report.bytes_moved
        outcome.lost_blocks += len(report.lost_blocks)
        self.runner.schedule.remove(victim)
        self._check_integrity(report.cluster_id, outcome)

    def _pick_victim(self) -> int | None:
        """A random live member whose cluster can afford to lose it.

        Liveness comes from the fault layer's view (``Network.live_members``),
        not an ad-hoc membership list: a node the fault plan crashed or
        stalled is neither counted toward its cluster's spare capacity
        nor picked for departure, so churn composes with fault
        injection.  On clean networks every clustered member is online
        and the candidate list — and hence the RNG draw — is identical
        to the historical behaviour.
        """
        minimum = max(self.deployment.config.replication + 1, 2)
        network = self.deployment.network
        candidates: list[int] = []
        for view in self.deployment.clusters.views():
            live = network.live_members(view.members)
            if len(live) > minimum:
                candidates.extend(live)
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _check_integrity(
        self, cluster_id: int, outcome: ChurnOutcome
    ) -> None:
        if self.settle_seconds is not None:
            # Endurance mode: mid-run deficits are the anti-entropy
            # engine's job; only the end-of-run audit is meaningful.
            return
        try:
            intact = self.deployment.cluster_holds_full_ledger(cluster_id)
        except ClusteringError:
            return
        if not intact:
            outcome.integrity_violations += 1
