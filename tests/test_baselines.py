"""Integration tests for the baseline deployments and SPV helpers."""

from __future__ import annotations

import pytest

from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.baselines.spv import spv_bootstrap_bytes
from repro.chain.block import HEADER_SIZE, build_block
from repro.chain.transaction import make_coinbase
from repro.errors import ConfigurationError
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def full_deployment(n_nodes=12, n_blocks=4):
    deployment = FullReplicationDeployment(n_nodes, limits=TEST_LIMITS)
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=3)
    return deployment, report


def rapid_deployment(n_nodes=12, n_committees=3, n_blocks=6):
    deployment = RapidChainDeployment(
        n_nodes, n_committees=n_committees, limits=TEST_LIMITS
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=3)
    return deployment, report


class TestFullReplication:
    def test_every_node_stores_everything(self):
        deployment, report = full_deployment()
        for node in deployment.nodes.values():
            assert node.store.body_count == 5  # genesis + 4
            assert node.ledger.height == 4

    def test_all_nodes_agree_on_balances(self):
        deployment, _ = full_deployment()
        reference = deployment.nodes[0].ledger.utxos.serialize_snapshot()
        for node in deployment.nodes.values():
            assert node.ledger.utxos.serialize_snapshot() == reference

    def test_storage_total_is_n_times_ledger(self):
        deployment, _ = full_deployment()
        per_node = deployment.nodes[0].store.stored_bytes
        storage = deployment.storage_report()
        assert storage.total_bytes == per_node * len(deployment.nodes)

    def test_retrieval_is_local(self):
        deployment, report = full_deployment()
        record = deployment.retrieve_block(5, report.block_hashes[0])
        assert record.latency == 0.0

    def test_join_downloads_full_ledger(self):
        deployment, _ = full_deployment()
        ledger_bodies = sum(
            b.size_bytes for b in deployment.nodes[0].store.iter_bodies()
        )
        join = deployment.join_new_node()
        deployment.run()
        assert join.complete
        assert join.body_bytes == pytest.approx(ledger_bodies, rel=0.01)
        joined = deployment.nodes[join.node_id]
        assert joined.ledger.height == 4

    def test_invalid_block_not_applied(self):
        deployment, _ = full_deployment(n_blocks=1)
        tip = deployment.nodes[0].ledger.tip
        greedy = build_block(
            height=tip.height + 1,
            prev_hash=tip.block_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward * 100,
                    b"\x01" * 20,
                    tip.height + 1,
                )
            ],
            timestamp=tip.timestamp + 1,
        )
        deployment.disseminate(greedy, proposer_id=0)
        deployment.run()
        for node in deployment.nodes.values():
            assert node.ledger.height == 1


class TestRapidChain:
    def test_bodies_live_only_in_home_committee(self):
        deployment, report = rapid_deployment()
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            home = deployment.home_committee(header)
            for node in deployment.nodes.values():
                has = node.store.has_body(block_hash)
                if node.cluster_id == home:
                    assert has, f"home member {node.node_id} missing body"
                else:
                    assert not has

    def test_headers_reach_everyone(self):
        deployment, report = rapid_deployment()
        for node in deployment.nodes.values():
            assert node.store.header_count == 7  # genesis + 6

    def test_per_node_storage_is_shard_sized(self):
        deployment, _ = rapid_deployment()
        total_bodies = sum(
            deployment.ledger.store.body(h.block_hash).body_size_bytes
            for h in deployment.ledger.store.iter_active_headers()
        )
        storage = deployment.storage_report()
        header_bytes = 7 * HEADER_SIZE
        # Every member of a committee stores its whole shard; across all
        # nodes the bodies appear committee_size times.
        committee_size = 4
        expected_total = total_bodies * committee_size + header_bytes * 12
        assert storage.total_bytes == pytest.approx(expected_total, rel=0.05)

    def test_committee_finality_recorded(self):
        deployment, report = rapid_deployment()
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            home = deployment.home_committee(header)
            assert (
                block_hash,
                home,
            ) in deployment.metrics.cluster_finalized_at

    def test_cross_shard_retrieval(self):
        deployment, report = rapid_deployment()
        block_hash = report.block_hashes[0]
        header = deployment.ledger.store.header(block_hash)
        home = deployment.home_committee(header)
        outsider = next(
            node_id
            for node_id, node in deployment.nodes.items()
            if node.cluster_id != home
        )
        record = deployment.retrieve_block(outsider, block_hash)
        deployment.run()
        assert record.latency is not None and record.latency > 0

    def test_join_downloads_one_shard(self):
        deployment, _ = rapid_deployment()
        join = deployment.join_new_node()
        deployment.run()
        assert join.complete
        joiner = deployment.nodes[join.node_id]
        shard_bytes = sum(
            b.size_bytes
            for node_id, node in deployment.nodes.items()
            if node_id != join.node_id
            and node.cluster_id == join.cluster_id
            for b in [] # placeholder, computed below
        )
        # The joiner's bodies equal a committee mate's bodies.
        mate = next(
            node
            for node_id, node in deployment.nodes.items()
            if node_id != join.node_id
            and node.cluster_id == join.cluster_id
        )
        assert joiner.store.body_count == mate.store.body_count

    def test_bad_committee_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RapidChainDeployment(4, n_committees=10)

    def test_invalid_block_rejected(self):
        deployment, _ = rapid_deployment(n_blocks=1)
        tip = deployment.ledger.tip
        greedy = build_block(
            height=tip.height + 1,
            prev_hash=tip.block_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward * 100,
                    b"\x01" * 20,
                    tip.height + 1,
                )
            ],
            timestamp=tip.timestamp + 1,
        )
        deployment.disseminate(greedy, proposer_id=0)
        deployment.run()
        assert greedy.block_hash in deployment.metrics.blocks_rejected
        assert deployment.ledger.height == 1


class TestStorageOrdering:
    def test_ici_beats_rapidchain_beats_full(self):
        """The paper's qualitative ordering under identical workloads."""
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment

        n, blocks = 16, 5
        full = FullReplicationDeployment(n, limits=TEST_LIMITS)
        ScenarioRunner(full, limits=TEST_LIMITS).produce_blocks(blocks, 3)
        rapid = RapidChainDeployment(n, n_committees=4, limits=TEST_LIMITS)
        ScenarioRunner(rapid, limits=TEST_LIMITS).produce_blocks(blocks, 3)
        ici = ICIDeployment(
            n,
            config=ICIConfig(
                n_clusters=2, replication=1, limits=TEST_LIMITS
            ),
        )
        ScenarioRunner(ici, limits=TEST_LIMITS).produce_blocks(blocks, 3)

        full_bytes = full.storage_report().total_bytes
        rapid_bytes = rapid.storage_report().total_bytes
        ici_bytes = ici.storage_report().total_bytes
        assert ici_bytes < rapid_bytes < full_bytes


class TestSpv:
    def test_bootstrap_bytes(self):
        assert spv_bootstrap_bytes(99) == HEADER_SIZE * 100
        with pytest.raises(ValueError):
            spv_bootstrap_bytes(-1)
