"""Soak test: every feature active at once on one network.

A single scenario exercises the full surface in sequence — relay-driven
compact blocks with parity protection, a fork + reorg, churn (join,
graceful leave, crash with parity recovery), SPV checks, and retrieval
under failure — then asserts the global invariants one last time.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS, chaos_config

#: Population multiplier for CI soak runs (block counts stay fixed so the
#: height/reorg assertions hold at any scale).
SOAK_SCALE = max(1, int(os.environ.get("SOAK_SCALE", "1")))


@pytest.fixture(scope="module")
def soaked():
    deployment = ICIDeployment(
        24 * SOAK_SCALE,
        config=ICIConfig(
            n_clusters=3 * SOAK_SCALE,
            replication=1,
            parity_group_size=3,
            compact_blocks=True,
            limits=TEST_LIMITS,
            seed=42,
        ),
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=42)

    # Phase 1: relay-driven production with compact dissemination.
    runner.produce_blocks_via_relay(6, txs_per_block=5)
    # Phase 2: a fork that wins.
    runner.produce_fork(fork_from_height=4, length=4)
    # Phase 3: more production on the new chain (direct mode).
    runner.produce_blocks(4, txs_per_block=4)
    # Phase 4: churn — join, then graceful leave, then crash.
    join = deployment.join_new_node()
    deployment.run()
    assert join.complete
    cluster = join.cluster_id
    leaver = next(
        m
        for m in deployment.clusters.members_of(cluster)
        if m != join.node_id
    )
    leave = deployment.leave_node(leaver)
    deployment.run()
    assert leave.complete
    deployment.parity.flush(deployment)
    crash_victim = next(
        m
        for m in deployment.clusters.members_of(cluster)
        if m != join.node_id
    )
    crash = deployment.repair_after_crash(crash_victim)
    deployment.run()
    # Phase 5: final production round proving the network still works.
    report = runner.produce_blocks(2, txs_per_block=3)
    return deployment, runner, crash, report


class TestSoak:
    def test_chain_advanced_through_everything(self, soaked):
        deployment, runner, _crash, _report = soaked
        # 6 relay + 4 fork (replacing 2) + 4 + 2 = height 14.
        assert deployment.ledger.height == 14
        assert deployment.reorg_count == 1

    def test_no_blocks_rejected(self, soaked):
        deployment, *_ = soaked
        assert not deployment.metrics.blocks_rejected

    def test_crash_lost_nothing_thanks_to_parity(self, soaked):
        _deployment, _runner, crash, _report = soaked
        assert crash.complete
        assert not crash.lost_blocks

    def test_intra_cluster_integrity_everywhere(self, soaked):
        deployment, *_ = soaked
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)

    def test_every_node_fully_synced_headers(self, soaked):
        deployment, _runner, _crash, report = soaked
        # All *active* headers are known to every surviving node.
        for node in deployment.nodes.values():
            for header in deployment.ledger.store.iter_active_headers():
                assert node.store.has_header(header.block_hash)

    def test_final_blocks_finalized_everywhere(self, soaked):
        deployment, _runner, _crash, report = soaked
        for block_hash in report.block_hashes:
            for view in deployment.clusters.views():
                assert (
                    block_hash,
                    view.cluster_id,
                ) in deployment.metrics.cluster_finalized_at

    def test_spv_works_after_the_dust_settles(self, soaked):
        deployment, _runner, _crash, report = soaked
        light = deployment.attach_light_client()
        block = report.blocks[-1]
        record = deployment.spv_check(
            light.node_id, block.block_hash, block.transactions[0].txid
        )
        deployment.run()
        assert record.verified is True

    def test_retrieval_still_works(self, soaked):
        deployment, _runner, _crash, report = soaked
        block_hash = report.block_hashes[0]
        header = deployment.ledger.store.header(block_hash)
        for view in deployment.clusters.views():
            holders = set(
                deployment.holders_in_cluster(header, view.cluster_id)
            )
            requester = next(
                m for m in view.members if m not in holders
            )
            record = deployment.retrieve_block(requester, block_hash)
            deployment.run()
            assert record.latency is not None

    def test_storage_stays_fractional(self, soaked):
        deployment, *_ = soaked
        ledger_bytes = deployment.ledger.store.stored_bytes
        storage = deployment.storage_report()
        assert storage.mean_node_bytes < 0.6 * ledger_bytes


class TestChaosSoak:
    """Chaos endurance at soak scale: hostile weather on a big population."""

    def test_chaos_endurance_at_scale(self):
        from repro.sim.chaos import run_endurance

        outcome = run_endurance(
            chaos_config(
                seed=42,
                n_nodes=16 * SOAK_SCALE,
                n_clusters=4 * SOAK_SCALE,
                replication=2,
                n_blocks=8,
                drop_rate=0.2,
                duplicate_rate=0.05,
                delay_rate=0.05,
                crash_count=SOAK_SCALE,
                partition=True,
            ),
            limits=TEST_LIMITS,
        )
        assert outcome.integrity_restored, outcome.cluster_integrity
        assert outcome.fault_stats["recoveries"] == SOAK_SCALE
        assert outcome.queries_completed == outcome.queries_attempted
