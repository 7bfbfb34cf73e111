"""Integration tests for the ICIStrategy deployment."""

from __future__ import annotations

import pytest

from repro.chain.block import build_block
from repro.chain.transaction import make_coinbase
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def deploy(n_nodes=16, **config_kwargs) -> ICIDeployment:
    config_kwargs.setdefault("n_clusters", 4)
    config_kwargs.setdefault("replication", 1)
    config_kwargs.setdefault("limits", TEST_LIMITS)
    return ICIDeployment(n_nodes, config=ICIConfig(**config_kwargs))


def run_blocks(deployment, n_blocks=4, txs=3):
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    return runner.produce_blocks(n_blocks, txs_per_block=txs), runner


class TestConfig:
    def test_validates_against_population(self):
        with pytest.raises(ConfigurationError):
            ICIConfig(n_clusters=10).validate_for(5)
        with pytest.raises(ConfigurationError):
            ICIConfig(n_clusters=2, replication=9).validate_for(10)

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            ICIConfig(placement="bogus")
        with pytest.raises(ConfigurationError):
            ICIConfig(clustering="bogus")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigurationError):
            ICIConfig(n_clusters=0)
        with pytest.raises(ConfigurationError):
            ICIConfig(replication=0)
        with pytest.raises(ConfigurationError):
            ICIConfig(state_snapshot_bytes=-1)


class TestDissemination:
    def test_every_cluster_finalizes_every_block(self):
        deployment = deploy()
        report, _ = run_blocks(deployment, n_blocks=5)
        assert deployment.total_finalized_blocks() == 5
        for view in deployment.clusters.views():
            for block_hash in report.block_hashes:
                assert (
                    block_hash,
                    view.cluster_id,
                ) in deployment.metrics.cluster_finalized_at

    def test_intra_cluster_integrity_invariant(self):
        """Each cluster collectively holds the entire ledger."""
        deployment = deploy()
        run_blocks(deployment, n_blocks=6)
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)

    def test_every_node_has_every_header(self):
        deployment = deploy()
        report, _ = run_blocks(deployment, n_blocks=4)
        for node in deployment.nodes.values():
            assert node.store.header_count == 5  # genesis + 4

    def test_only_holders_keep_bodies(self):
        deployment = deploy()
        report, _ = run_blocks(deployment, n_blocks=4)
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            for view in deployment.clusters.views():
                holders = set(
                    deployment.holders_in_cluster(header, view.cluster_id)
                )
                for member in view.members:
                    has = deployment.nodes[member].store.has_body(block_hash)
                    assert has == (member in holders)

    def test_replication_factor_respected(self):
        deployment = deploy(replication=2)
        report, _ = run_blocks(deployment, n_blocks=4)
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            for view in deployment.clusters.views():
                holders = deployment.holders_in_cluster(
                    header, view.cluster_id
                )
                assert len(holders) == 2
                copies = sum(
                    deployment.nodes[m].store.has_body(block_hash)
                    for m in view.members
                )
                assert copies == 2

    def test_per_node_storage_below_full_ledger(self):
        deployment = deploy()
        report, _ = run_blocks(deployment, n_blocks=6)
        ledger_bytes = deployment.ledger.store.stored_bytes
        storage = deployment.storage_report()
        assert storage.max_node_bytes < ledger_bytes

    def test_finalize_latency_recorded(self):
        deployment = deploy()
        report, _ = run_blocks(deployment, n_blocks=2)
        for block_hash in report.block_hashes:
            latency = deployment.metrics.finalize_latency(
                block_hash, deployment.clusters.cluster_count
            )
            assert latency is not None and latency > 0

    def test_unknown_proposer_rejected(self, genesis):
        deployment = deploy()
        block = build_block(
            height=1,
            prev_hash=deployment.ledger.tip.block_hash,
            transactions=[make_coinbase(1, b"\x01" * 20, 1)],
            timestamp=1.0,
        )
        from repro.errors import UnknownBlockError

        with pytest.raises(UnknownBlockError):
            deployment.disseminate(block, proposer_id=999)


class TestInvalidBlockHandling:
    def test_invalid_block_rejected_by_clusters(self):
        deployment = deploy()
        greedy = build_block(
            height=1,
            prev_hash=deployment.ledger.tip.block_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward * 100, b"\x01" * 20, 1
                )
            ],
            timestamp=1.0,
        )
        deployment.disseminate(greedy, proposer_id=0)
        deployment.run()
        assert greedy.block_hash in deployment.metrics.blocks_rejected
        # Nobody retains the invalid body.
        for node in deployment.nodes.values():
            assert not node.store.has_body(greedy.block_hash)
        # The canonical ledger did not apply it.
        assert deployment.ledger.height == 0


class TestAblations:
    def test_broadcast_votes_mode_finalizes(self):
        deployment = deploy(aggregate_votes=False)
        run_blocks(deployment, n_blocks=3)
        assert deployment.total_finalized_blocks() == 3

    def test_broadcast_votes_costs_more_traffic(self):
        agg = deploy(aggregate_votes=True)
        run_blocks(agg, n_blocks=3)
        broadcast = deploy(aggregate_votes=False)
        run_blocks(broadcast, n_blocks=3)
        assert (
            broadcast.network.traffic.total_messages
            > agg.network.traffic.total_messages
        )

    def test_placement_policies_all_work(self):
        for placement in ("hash", "modulo", "round_robin", "capacity"):
            deployment = deploy(placement=placement)
            run_blocks(deployment, n_blocks=2)
            assert deployment.total_finalized_blocks() == 2

    def test_capacity_weights_skew_storage(self):
        deployment = deploy(
            n_nodes=8,
            n_clusters=1,
            placement="capacity",
            node_capacities={0: 8.0},
        )
        run_blocks(deployment, n_blocks=24, txs=2)
        counts = {
            node_id: node.store.body_count
            for node_id, node in deployment.nodes.items()
        }
        mean_others = sum(
            count for node_id, count in counts.items() if node_id != 0
        ) / 7
        assert counts[0] > mean_others

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ICIConfig(placement="capacity", node_capacities={0: 0.0})

    def test_coordinate_clusterings_work(self):
        from repro.clustering.coordinates import place_regions
        from repro.net.latency import CoordinateLatency
        from repro.net.network import Network

        for clustering in ("kmeans", "latency"):
            coordinates = place_regions(16, n_regions=4, seed=1)
            network = Network(latency=CoordinateLatency(coordinates))
            deployment = ICIDeployment(
                16,
                config=ICIConfig(
                    n_clusters=4,
                    clustering=clustering,
                    limits=TEST_LIMITS,
                ),
                network=network,
                coordinates=coordinates,
            )
            run_blocks(deployment, n_blocks=2)
            assert deployment.total_finalized_blocks() == 2

    def test_coordinate_clustering_without_coordinates_rejected(self):
        with pytest.raises(ConfigurationError):
            ICIDeployment(
                8,
                config=ICIConfig(
                    n_clusters=2, clustering="kmeans", limits=TEST_LIMITS
                ),
            )


class TestFaultTolerance:
    def test_finalization_survives_minority_crash(self):
        """< 1/3 of each cluster offline: blocks still finalize."""
        deployment = deploy(n_nodes=16, n_clusters=2)  # clusters of 8
        # Crash one non-aggregating member per cluster (quorum 6 of 8).
        for view in deployment.clusters.views():
            deployment.network.set_online(view.members[-1], False)
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        runner.produce_blocks(2, txs_per_block=2)
        assert deployment.total_finalized_blocks() >= 1

    def test_offline_proposer_blocks_nothing(self):
        deployment = deploy()
        deployment.network.set_online(0, False)
        block = build_block(
            height=1,
            prev_hash=deployment.ledger.tip.block_hash,
            transactions=[
                make_coinbase(TEST_LIMITS.block_reward, b"\x01" * 20, 1)
            ],
            timestamp=1.0,
        )
        deployment.disseminate(block, proposer_id=0)
        deployment.run()
        assert deployment.total_finalized_blocks() == 0
