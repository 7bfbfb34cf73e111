"""Integration tests: graceful departure, crash repair, parity recovery."""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.core.parity import ParityManager, RecoveryReport
from repro.errors import ClusteringError, ConfigurationError, StorageError
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def deployed(n_nodes=20, n_blocks=10, **config_kwargs):
    config_kwargs.setdefault("n_clusters", 4)
    config_kwargs.setdefault("replication", 2)
    config_kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(n_nodes, config=ICIConfig(**config_kwargs))
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=4)
    return deployment, report


def copies_per_block(deployment, cluster_id):
    members = deployment.clusters.members_of(cluster_id)
    return [
        sum(
            deployment.nodes[m].store.has_body(header.block_hash)
            for m in members
        )
        for header in deployment.ledger.store.iter_active_headers()
    ]


class TestGracefulDeparture:
    def test_leaver_removed_and_integrity_kept(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        report = deployment.leave_node(victim)
        deployment.run()
        assert report.complete and report.graceful
        assert victim not in deployment.nodes
        assert victim not in deployment.clusters.all_nodes()
        assert deployment.cluster_holds_full_ledger(cluster)

    def test_replication_count_restored_exactly(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        deployment.leave_node(victim)
        deployment.run()
        assert all(c == 2 for c in copies_per_block(deployment, cluster))

    @pytest.mark.parametrize(
        "placement", ["hash", "modulo", "round_robin"]
    )
    def test_all_placements_repair_correctly(self, placement):
        deployment, _ = deployed(placement=placement)
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        report = deployment.leave_node(victim)
        deployment.run()
        assert report.complete
        assert all(c == 2 for c in copies_per_block(deployment, cluster))

    def test_rendezvous_moves_least(self):
        moved = {}
        for placement in ("hash", "modulo"):
            deployment, _ = deployed(placement=placement)
            cluster = deployment.nodes[0].cluster_id
            victim = deployment.clusters.members_of(cluster)[1]
            report = deployment.leave_node(victim)
            deployment.run()
            moved[placement] = report.blocks_transferred
        assert moved["hash"] <= moved["modulo"]

    def test_departed_node_unregistered_from_network(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        deployment.leave_node(victim)
        deployment.run()
        assert victim not in deployment.network.node_ids

    def test_unknown_node_rejected(self):
        deployment, _ = deployed()
        with pytest.raises(ClusteringError):
            deployment.leave_node(999)

    def test_departure_below_replication_rejected(self):
        # clusters of 2 with replication 2: nobody may leave.
        deployment, _ = deployed(n_nodes=8, n_clusters=4, replication=2)
        with pytest.raises(ClusteringError):
            deployment.leave_node(0)

    def test_departures_recorded_in_metrics(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        deployment.leave_node(victim)
        deployment.run()
        assert len(deployment.metrics.departures) == 1
        assert deployment.metrics.departures[0].node_id == victim

    def test_sequential_departures(self):
        deployment, _ = deployed(n_nodes=24, n_clusters=3, replication=2)
        cluster = deployment.nodes[0].cluster_id
        for _ in range(3):
            victim = deployment.clusters.members_of(cluster)[-1]
            report = deployment.leave_node(victim)
            deployment.run()
            assert report.complete
        assert deployment.cluster_holds_full_ledger(cluster)

    @pytest.mark.parametrize("second", ["leave_node", "repair_after_crash"])
    def test_a_node_departs_once(self, second):
        """A second departure of a node still leaving is refused before
        it touches anything, so the first one completes and removes the
        node exactly once."""
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        report = deployment.leave_node(victim)
        assert not report.complete  # its body transfers are in flight
        with pytest.raises(ClusteringError, match="already departing"):
            getattr(deployment, second)(victim)
        assert deployment.network.is_online(victim)
        deployment.run()
        assert report.complete and report.graceful
        assert [r.node_id for r in deployment.metrics.departures] == [victim]
        assert victim not in deployment.nodes
        assert victim not in deployment.clusters.all_nodes()
        assert deployment.cluster_holds_full_ledger(cluster)
        assert all(c == 2 for c in copies_per_block(deployment, cluster))

    def test_only_a_last_member_removal_is_called_one(self):
        """Removing a node that is no longer clustered is not reported
        as its cluster's last member."""
        from repro.core.departure import _remove_member

        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[1]
        deployment.leave_node(victim)
        deployment.run()
        with pytest.raises(ClusteringError, match="unclustered"):
            _remove_member(deployment, victim)


class TestCrashRepair:
    def test_r2_crash_fully_repaired(self):
        deployment, _ = deployed(replication=2)
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        report = deployment.repair_after_crash(victim)
        deployment.run()
        assert report.complete and not report.graceful
        assert not report.lost_blocks
        assert deployment.cluster_holds_full_ledger(cluster)
        assert all(c == 2 for c in copies_per_block(deployment, cluster))

    def test_r1_crash_loses_victims_blocks(self):
        deployment, _ = deployed(
            n_nodes=16, n_clusters=4, replication=1
        )
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        held = deployment.nodes[victim].store.body_count
        non_genesis_held = sum(
            not block.header.is_genesis
            for block in deployment.nodes[victim].store.iter_bodies()
        )
        report = deployment.repair_after_crash(victim)
        deployment.run()
        assert len(report.lost_blocks) == non_genesis_held
        assert held >= non_genesis_held

    def test_genesis_never_lost(self):
        """Genesis is a hardcoded constant — regenerated, not fetched."""
        deployment, _ = deployed(
            n_nodes=16, n_clusters=4, replication=1
        )
        genesis_hash = deployment.ledger.active_hash_at(0)
        for view in deployment.clusters.views():
            holder = next(
                m
                for m in view.members
                if deployment.nodes[m].store.has_body(genesis_hash)
            )
            report = deployment.repair_after_crash(holder)
            deployment.run()
            assert genesis_hash not in report.lost_blocks
            members = deployment.clusters.members_of(view.cluster_id)
            assert any(
                deployment.nodes[m].store.has_body(genesis_hash)
                for m in members
            )
            break  # one cluster suffices

    def test_crash_forces_node_offline(self):
        deployment, _ = deployed()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        deployment.repair_after_crash(victim)
        deployment.run()
        assert victim not in deployment.nodes


class TestParityExtension:
    def make_parity_deployment(self, n_blocks=16):
        deployment, report = deployed(
            n_nodes=20,
            n_clusters=2,
            replication=1,
            parity_group_size=4,
            n_blocks=n_blocks,
        )
        deployment.parity.flush(deployment)
        return deployment, report

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ICIConfig(parity_group_size=1)
        with pytest.raises(ConfigurationError):
            ICIConfig(parity_group_size=-1)
        with pytest.raises(StorageError):
            ParityManager(group_size=1)

    def test_an_oversized_group_fails_at_config_time(self):
        """RS(k, k + 1) over GF(256) has at most 256 chunks: a larger
        group is refused by the config, not by the first seal."""
        assert ICIConfig(parity_group_size=255).parity_group_size == 255
        with pytest.raises(ConfigurationError, match="<= 255"):
            ICIConfig(parity_group_size=256)

    def test_groups_seal_as_blocks_finalize(self):
        deployment, _ = self.make_parity_deployment()
        assert deployment.parity.sealed_groups > 0
        assert deployment.parity.total_parity_bytes > 0

    def test_stripes_are_holder_disjoint(self):
        """No member holds two bodies of the same sealed group."""
        deployment, _ = self.make_parity_deployment()
        parity = deployment.parity
        for group_id, sealed in parity._sealed.items():
            holders_seen: set[int] = set()
            for member_hash in sealed.member_ids:
                header = deployment.ledger.store.header(member_hash)
                holders = deployment.holders_in_cluster(
                    header, sealed.cluster_id
                )
                for holder in holders:
                    assert holder not in holders_seen
                    holders_seen.add(holder)
            assert sealed.parity_holder not in holders_seen

    def test_crash_with_parity_loses_nothing(self):
        deployment, _ = self.make_parity_deployment()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        report = deployment.repair_after_crash(victim)
        deployment.run()
        assert not report.lost_blocks
        assert deployment.cluster_holds_full_ledger(cluster)

    def test_recovered_blocks_verify_against_headers(self):
        deployment, _ = self.make_parity_deployment()
        cluster = deployment.nodes[0].cluster_id
        victim = deployment.clusters.members_of(cluster)[0]
        lost_bodies = [
            block.block_hash
            for block in deployment.nodes[victim].store.iter_bodies()
            if not block.header.is_genesis
        ]
        deployment.repair_after_crash(victim)
        deployment.run()
        members = deployment.clusters.members_of(cluster)
        for block_hash in lost_bodies:
            holder = next(
                m
                for m in members
                if deployment.nodes[m].store.has_body(block_hash)
            )
            block = deployment.nodes[holder].store.body(block_hash)
            assert block.verify_merkle_commitment()

    def test_parity_cheaper_than_extra_replica(self):
        with_parity, _ = self.make_parity_deployment()
        r2, _ = deployed(
            n_nodes=20, n_clusters=2, replication=2, n_blocks=16
        )
        parity_bodies = sum(
            r.body_bytes for r in with_parity.storage_report().per_node
        ) + with_parity.parity.total_parity_bytes
        r2_bodies = sum(
            r.body_bytes for r in r2.storage_report().per_node
        )
        assert parity_bodies < 0.8 * r2_bodies

    def test_double_loss_in_group_unrecoverable(self):
        deployment, _ = self.make_parity_deployment()
        parity = deployment.parity
        # Pick a sealed group, delete two of its bodies everywhere.
        group_id, sealed = next(iter(parity._sealed.items()))
        victims = sealed.member_ids[:2]
        members = deployment.clusters.members_of(sealed.cluster_id)
        for block_hash in victims:
            for m in members:
                deployment.nodes[m].unassign_body(block_hash)
        recovery = RecoveryReport()
        block = parity.recover_block(
            deployment, sealed.cluster_id, victims[0], recovery
        )
        assert block is None
        assert victims[0] in recovery.unrecoverable

    def test_recovery_reads_are_accounted(self):
        deployment, _ = self.make_parity_deployment()
        parity = deployment.parity
        group_id, sealed = next(iter(parity._sealed.items()))
        target = sealed.member_ids[0]
        members = deployment.clusters.members_of(sealed.cluster_id)
        for m in members:
            deployment.nodes[m].unassign_body(target)
        recovery = RecoveryReport()
        block = parity.recover_block(
            deployment, sealed.cluster_id, target, recovery
        )
        assert block is not None
        assert recovery.bytes_read > 0
        assert recovery.parity_bytes_read > 0

    def test_departed_parity_holder_still_charges_survivor_reads(self):
        """Churn-then-recover: reads before the parity check are charged.

        A group seals, churn removes the parity holder, and only then a
        body is lost.  Recovery must fail (the parity chunk left with its
        holder) — but the survivor bodies were read *before* the failure
        was known, so ``bytes_read`` must count them, exactly as the
        missing-survivor abort path charges its partial reads.
        """
        deployment, _ = self.make_parity_deployment()
        parity = deployment.parity
        # A group whose parity holder may depart (replication=1 clusters
        # of 10: any member holding only its own replicas can leave).
        group_id, sealed = next(iter(parity._sealed.items()))
        deployment.leave_node(sealed.parity_holder)
        deployment.run()
        assert not deployment.network.is_online(sealed.parity_holder)
        target = sealed.member_ids[0]
        members = deployment.clusters.members_of(sealed.cluster_id)
        for m in members:
            deployment.nodes[m].unassign_body(target)
        recovery = RecoveryReport()
        block = parity.recover_block(
            deployment, sealed.cluster_id, target, recovery
        )
        assert block is None
        assert target in recovery.unrecoverable
        assert recovery.bytes_read > 0, (
            "survivor reads preceding the parity-holder failure "
            "must be charged to the report"
        )
        assert recovery.parity_bytes_read == 0

    def test_flush_seals_partial_stripes(self):
        deployment, _ = deployed(
            n_nodes=20,
            n_clusters=2,
            replication=1,
            parity_group_size=50,  # never fills naturally
            n_blocks=6,
        )
        assert deployment.parity.sealed_groups == 0
        sealed = deployment.parity.flush(deployment)
        assert sealed > 0
        assert deployment.parity.sealed_groups == sealed
