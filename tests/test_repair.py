"""The anti-entropy repair engine: silent damage gets found and fixed.

The event-driven repair paths only fix damage they are told about; these
tests damage storage *without* telling anyone (unassign a body, crash a
repair source mid-transfer) and assert the periodic sweep restores the
replication floor — idempotently, with failover, and with an explicit
unrecoverable verdict when no live replica exists anywhere.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ClusteringError, ConfigurationError
from repro.sim.faults import FaultInjector
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS, queued


def deployed(n_nodes=12, n_blocks=4, faults=True, **config_kwargs):
    config_kwargs.setdefault("n_clusters", 3)
    config_kwargs.setdefault("replication", 2)
    config_kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(n_nodes, config=ICIConfig(**config_kwargs))
    # A zero-rate fault layer: lossless and deterministic, but its
    # presence routes departures through the tracked repair path.
    injector = (
        FaultInjector.install(deployment.network) if faults else None
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    runner.produce_blocks(n_blocks, txs_per_block=2)
    return deployment, injector


def sweep(deployment, rounds=4, cadence=2.0):
    """Run the engine for ``rounds`` sweep windows, then quiesce."""
    deployment.repair.start(cadence=cadence)
    for _ in range(rounds):
        deployment.network.clock.run_for(cadence)
    deployment.repair.stop()
    deployment.run()


def replicas(deployment, cluster_id, block_hash) -> int:
    return sum(
        deployment.nodes[m].store.has_body(block_hash)
        for m in deployment.clusters.members_of(cluster_id)
        if m in deployment.nodes
    )


def pick_block(deployment, cluster_id):
    """A non-genesis block and one of its in-cluster holders."""
    members = deployment.clusters.members_of(cluster_id)
    for header in deployment.ledger.store.iter_active_headers():
        if header.is_genesis:
            continue
        for member in members:
            if deployment.nodes[member].store.has_body(header.block_hash):
                return header.block_hash, member
    raise AssertionError("no replicated block found")


class TestDormantByDefault:
    def test_installed_but_off_path(self):
        deployment, _ = deployed(faults=False)
        repair = deployment.engines["repair"]
        assert repair is deployment.repair
        assert not repair.active
        # Never swept, never sent: a whole run left no repair footprint.
        assert all(v == 0 for v in asdict(repair.stats).values())
        assert not repair.tracker.pending
        assert queued(deployment.network.clock) == 0

    def test_start_rejects_degenerate_cadence(self):
        deployment, _ = deployed(faults=False)
        with pytest.raises(ConfigurationError):
            deployment.repair.start(cadence=0.0)


class TestSweeping:
    def test_healthy_cluster_sweeps_to_a_noop(self):
        deployment, _ = deployed()
        sweep(deployment, rounds=3)
        stats = deployment.repair.stats
        assert stats.sweeps >= 3
        assert stats.digests_received > 0
        assert stats.digest_failures == 0
        assert stats.under_replicated == 0
        assert stats.repairs_scheduled == 0
        assert stats.blocks_re_replicated == 0

    def test_silent_loss_detected_and_restored(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        block_hash, holder = pick_block(deployment, cluster)
        deployment.nodes[holder].unassign_body(block_hash)
        assert replicas(deployment, cluster, block_hash) == 1
        sweep(deployment)
        assert replicas(deployment, cluster, block_hash) >= 2
        stats = deployment.repair.stats
        assert stats.under_replicated == 1
        assert stats.blocks_re_replicated == 1
        assert stats.bytes_re_replicated > 0
        # Time-to-repair was measured in virtual time.
        assert len(deployment.repair.repair_times) == 1
        assert deployment.repair.repair_times[0] >= 0.0

    def test_overlapping_sweeps_repair_exactly_once(self):
        """Idempotency: many sweeps over one deficit, one transfer."""
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        block_hash, holder = pick_block(deployment, cluster)
        deployment.nodes[holder].unassign_body(block_hash)
        sweep(deployment, rounds=8, cadence=0.5)
        assert replicas(deployment, cluster, block_hash) >= 2
        assert deployment.repair.stats.blocks_re_replicated == 1

    def test_genesis_regenerated_without_a_transfer(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        genesis_hash = next(
            h.block_hash
            for h in deployment.ledger.store.iter_active_headers()
            if h.is_genesis
        )
        holder = next(
            m
            for m in deployment.clusters.members_of(cluster)
            if deployment.nodes[m].store.has_body(genesis_hash)
        )
        deployment.nodes[holder].unassign_body(genesis_hash)
        sweep(deployment)
        assert replicas(deployment, cluster, genesis_hash) >= 2
        stats = deployment.repair.stats
        assert stats.blocks_re_replicated == 1
        assert stats.repairs_scheduled == 0  # local regeneration, no wire


class TestUnrecoverable:
    def test_r1_cross_cluster_failover(self):
        """One crashed r=1 holder is *not* fatal: sibling clusters hold
        the full ledger too, and the plan falls back to them."""
        deployment, injector = deployed(n_nodes=9, replication=1)
        cluster = deployment.nodes[0].cluster_id
        block_hash, holder = pick_block(deployment, cluster)
        injector.crash(holder)
        sweep(deployment, rounds=3)
        assert deployment.repair.stats.unrecoverable == 0
        assert deployment.repair.stats.blocks_re_replicated >= 1
        live = [
            m
            for m in deployment.clusters.members_of(cluster)
            if m != holder
        ]
        assert any(
            deployment.nodes[m].store.has_body(block_hash) for m in live
        )

    def test_r1_every_holder_dead_is_reported_not_hung(self):
        deployment, injector = deployed(n_nodes=9, replication=1)
        block_hash, _ = pick_block(
            deployment, deployment.nodes[0].cluster_id
        )
        holders = sorted(
            node_id
            for node_id, node in deployment.nodes.items()
            if node.store.has_body(block_hash)
        )
        for holder in holders:
            injector.crash(holder)
        sweep(deployment, rounds=3)
        stats = deployment.repair.stats
        assert stats.unrecoverable >= 1
        first_count = stats.unrecoverable

        # Counted once per (cluster, block), not once per sweep.
        sweep(deployment, rounds=2)
        assert deployment.repair.stats.unrecoverable == first_count

        # The verdict is revisited: once the holders recover, the live
        # replicas satisfy the floor again.
        injector.heal()
        sweep(deployment, rounds=2)
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)


class TestMidRepairCrash:
    def test_source_dies_before_sync_bodies_fails_over(self):
        """r=3: the preferred source crashes after receiving the
        SYNC_REQUEST; the tracked transfer fails over to the other
        surviving replica and the departure still completes cleanly."""
        deployment, injector = deployed(n_nodes=20, n_clusters=4,
                                        replication=3)
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        report = deployment.leave_node(victim)
        pending = deployment.repair.tracker.pending
        assert pending  # transfers run on tracker deadlines under faults
        # Crash a node that is purely a repair *source* — crashing a
        # transfer target would (correctly) defer that target's batch.
        targets = set(deployment.sync.departures)
        source = sorted(
            req.plan[0]
            for req in pending.values()
            if req.plan[0] not in targets
        )[0]
        injector.crash(source)
        deployment.run()
        assert report.complete
        assert report.deferred_blocks == []
        assert victim not in deployment.nodes
        assert deployment.cluster_holds_full_ledger(cluster)

    def test_exhausted_transfer_defers_to_anti_entropy(self):
        """r=2: every replica source of a batch dies mid-transfer.  The
        departure completes *degraded* (owed blocks deferred, stale
        copies kept) and the sweep finishes the job after recovery."""
        deployment, injector = deployed(replication=2)
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        report = deployment.leave_node(victim)
        pending = deployment.repair.tracker.pending
        assert pending
        sources = {req.plan[0] for req in pending.values()}
        for source in sources:
            injector.crash(source)
        deployment.run()
        assert report.complete
        assert report.deferred_blocks  # handed off, not hung
        assert victim not in deployment.nodes

        injector.heal()
        sweep(deployment, rounds=6)
        repair = deployment.repair.stats
        assert repair.blocks_re_replicated >= len(
            set(report.deferred_blocks)
        )
        assert deployment.cluster_holds_full_ledger(cluster)
        for block_hash in set(report.deferred_blocks):
            assert replicas(deployment, cluster, block_hash) >= 2


class TestAnalysisFailures:
    """``_analyze`` skips a cluster whose id is gone — the
    ``ClusteringError`` ``members_of`` documents — and nothing else."""

    def analyze_with(self, deployment, members_of):
        """Sweep with ``members_of`` replaced while ``_analyze`` runs."""
        repair = deployment.repair
        analyze = repair._analyze
        clusters = deployment.clusters

        def patched(session):
            clusters.members_of = members_of
            try:
                analyze(session)
            finally:
                del clusters.members_of  # the class method again

        repair._analyze = patched
        sweep(deployment)
        return repair.stats

    def test_a_dissolved_cluster_is_skipped(self):
        deployment, _ = deployed()

        def dissolved(cluster_id):
            raise ClusteringError(f"no cluster {cluster_id}")

        stats = self.analyze_with(deployment, dissolved)
        assert stats.sweeps and stats.repairs_scheduled == 0

    def test_any_other_failure_propagates(self):
        deployment, _ = deployed()

        def corrupted(cluster_id):
            raise RuntimeError("membership table corrupted")

        with pytest.raises(RuntimeError, match="corrupted"):
            self.analyze_with(deployment, corrupted)
