"""Tests for compact (BIP-152-style) block dissemination."""

from __future__ import annotations

import pytest

from repro.chain.block import Block
from repro.protocols.compact import (
    CompactStats,
    PendingCompact,
    compact_payload_bytes,
)
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.net.message import MessageKind
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def compact_deployment(n_nodes=16, **kwargs):
    kwargs.setdefault("n_clusters", 4)
    kwargs.setdefault("replication", 1)
    kwargs.setdefault("compact_blocks", True)
    kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(n_nodes, config=ICIConfig(**kwargs))
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    return deployment, runner


class TestCompactDissemination:
    def test_relay_driven_run_finalizes_everywhere(self):
        deployment, runner = compact_deployment()
        report = runner.produce_blocks_via_relay(5, txs_per_block=5)
        assert deployment.total_finalized_blocks() == 5
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)

    def test_holders_store_reconstructed_bodies(self):
        deployment, runner = compact_deployment()
        report = runner.produce_blocks_via_relay(4, txs_per_block=4)
        for block_hash in report.block_hashes:
            header = deployment.ledger.store.header(block_hash)
            for view in deployment.clusters.views():
                holders = deployment.holders_in_cluster(
                    header, view.cluster_id
                )
                for holder in holders:
                    block = deployment.nodes[holder].store.body(block_hash)
                    assert block.verify_merkle_commitment()

    def test_mempool_hit_rate_high_after_relay(self):
        deployment, runner = compact_deployment()
        runner.produce_blocks_via_relay(5, txs_per_block=5)
        assert deployment.compact_stats.hit_rate > 0.5
        assert deployment.compact_stats.announcements > 0

    def test_compact_saves_dissemination_bytes(self):
        compact, c_runner = compact_deployment()
        c_runner.produce_blocks_via_relay(4, txs_per_block=5)
        full, f_runner = compact_deployment(compact_blocks=False)
        f_runner.produce_blocks_via_relay(4, txs_per_block=5)
        kinds = {MessageKind.BLOCK_BODY, MessageKind.CONTROL}
        compact_bytes = compact.network.traffic.bytes_for_kinds(kinds)
        full_bytes = full.network.traffic.bytes_for_kinds(kinds)
        assert compact_bytes < full_bytes

    def test_cold_mempools_still_converge(self):
        """Without relay every tx is fetched — slower but correct."""
        deployment, runner = compact_deployment()
        report = runner.produce_blocks(4, txs_per_block=4)
        assert deployment.total_finalized_blocks() == 4
        # Everything was fetched (hit rate ~0 — only via txfill).
        assert deployment.compact_stats.transactions_fetched > 0


class TestCompactPrimitives:
    def test_payload_size_formula(self):
        assert compact_payload_bytes(0) == 84
        assert compact_payload_bytes(10) == 84 + 320

    def test_pending_assembles_in_txid_order(self, ledger, chain_of_three):
        block = chain_of_three[0]
        pending = PendingCompact(
            header=block.header,
            txids=tuple(tx.txid for tx in block.transactions),
            origin=0,
        )
        for tx in reversed(block.transactions):
            pending.have[tx.txid] = tx
        assert not pending.missing
        rebuilt = pending.assemble()
        assert rebuilt.transactions == block.transactions
        assert rebuilt.verify_merkle_commitment()

    def test_missing_lists_unfilled(self, ledger, chain_of_three):
        block = chain_of_three[0]
        pending = PendingCompact(
            header=block.header,
            txids=tuple(tx.txid for tx in block.transactions),
            origin=0,
        )
        assert len(pending.missing) == len(block.transactions)

    def test_stats_hit_rate(self):
        stats = CompactStats()
        assert stats.hit_rate == 1.0
        stats.transactions_referenced = 10
        stats.transactions_fetched = 3
        assert stats.hit_rate == pytest.approx(0.7)

    def test_tampered_reconstruction_rejected(self, ledger, chain_of_three):
        """A body that doesn't match the header commitment is dropped."""
        block_a, block_b = chain_of_three[0], chain_of_three[1]
        pending = PendingCompact(
            header=block_a.header,
            txids=tuple(tx.txid for tx in block_a.transactions),
            origin=0,
        )
        for tx in block_a.transactions:
            pending.have[tx.txid] = tx
        # Swap one transaction for a foreign one with a forged key.
        forged = dict(pending.have)
        victim_txid = block_a.transactions[0].txid
        forged[victim_txid] = block_b.transactions[0]
        pending.have.clear()
        pending.have.update(forged)
        rebuilt = Block(
            header=pending.header,
            transactions=tuple(
                pending.have[txid] for txid in pending.txids
            ),
        )
        assert not rebuilt.verify_merkle_commitment()
