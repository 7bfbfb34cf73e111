"""Tests for the workload generator, scenario builder, and runner."""

from __future__ import annotations

import pytest

from repro.chain.validation import check_transaction_stateless
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import (
    BENCH_LIMITS,
    Scenario,
    build_deployment,
    build_network,
)
from repro.sim.workload import TransactionWorkload, WorkloadConfig
from tests.conftest import TEST_LIMITS


class TestWorkloadConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(n_wallets=1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(target_tx_bytes=-1)


class TestTransactionWorkload:
    def test_no_funds_no_transfers(self):
        workload = TransactionWorkload()
        assert workload.next_transfer() is None
        assert workload.batch(5) == []

    def test_genesis_funds_wallet_zero(self, genesis):
        workload = TransactionWorkload()
        workload.on_block_confirmed(genesis)
        assert workload.spendable_value(workload.wallets[0]) > 0
        tx = workload.next_transfer()
        assert tx is not None
        check_transaction_stateless(tx, TEST_LIMITS)

    def test_pending_spends_not_reoffered(self, genesis):
        """Two consecutive transfers never double-spend."""
        workload = TransactionWorkload()
        workload.on_block_confirmed(genesis)
        first = workload.next_transfer()
        second = workload.next_transfer()
        if second is not None:  # wallet 0 may have a single outpoint
            spent_first = set(first.outpoints_spent())
            spent_second = set(second.outpoints_spent())
            assert not spent_first & spent_second

    def test_confirmation_recycles_outputs(self, ledger):
        workload = TransactionWorkload()
        workload.on_block_confirmed(
            ledger.store.body(ledger.active_hash_at(0))
        )
        runner_blocks = []
        from repro.chain.block import build_block
        from repro.chain.transaction import make_coinbase

        for height in range(1, 4):
            txs = workload.batch(3)
            coinbase = make_coinbase(
                TEST_LIMITS.block_reward, workload.wallets[0].address, height
            )
            block = build_block(
                height=height,
                prev_hash=ledger.tip.block_hash,
                transactions=[coinbase, *txs],
                timestamp=ledger.tip.timestamp + 1,
            )
            ledger.accept_block(block)  # validates everything
            workload.on_block_confirmed(block)
            runner_blocks.append(block)
        # After three blocks funds have fanned out to several wallets.
        funded = sum(
            workload.spendable_value(w) > 0 for w in workload.wallets
        )
        assert funded >= 2

    def test_deterministic_stream(self, genesis):
        a = TransactionWorkload(WorkloadConfig(seed=7))
        b = TransactionWorkload(WorkloadConfig(seed=7))
        a.on_block_confirmed(genesis)
        b.on_block_confirmed(genesis)
        ta, tb = a.next_transfer(), b.next_transfer()
        assert ta is not None and tb is not None
        assert ta.txid == tb.txid

    def test_padding_inflates_size(self, genesis):
        padded = TransactionWorkload(
            WorkloadConfig(target_tx_bytes=900, seed=1)
        )
        padded.on_block_confirmed(genesis)
        tx = padded.next_transfer()
        assert tx is not None
        assert tx.size_bytes >= 700

    def test_zero_padding(self, genesis):
        lean = TransactionWorkload(WorkloadConfig(target_tx_bytes=0, seed=1))
        lean.on_block_confirmed(genesis)
        tx = lean.next_transfer()
        assert tx is not None
        assert tx.payload == b""


class TestScenario:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            Scenario(strategy="bogus")

    def test_rejects_unknown_latency(self):
        with pytest.raises(ConfigurationError):
            Scenario(latency="bogus")

    @pytest.mark.parametrize("strategy", ["ici", "full", "rapidchain"])
    def test_build_each_strategy(self, strategy):
        scenario = Scenario(strategy=strategy, n_nodes=12, n_groups=3)
        deployment = build_deployment(scenario)
        assert deployment.node_count == 12

    def test_regions_latency_provides_coordinates(self):
        network, coordinates = build_network(
            Scenario(latency="regions", n_nodes=10)
        )
        assert coordinates is not None
        assert len(coordinates) == 10

    def test_ici_with_latency_clustering(self):
        network, coordinates = build_network(
            Scenario(n_nodes=12, n_groups=3, latency="regions")
        )
        config = ICIConfig(n_clusters=3, clustering="latency", limits=BENCH_LIMITS)
        deployment = ICIDeployment(
            12, config=config, network=network, coordinates=coordinates
        )
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        runner.produce_blocks(2, txs_per_block=2)
        assert deployment.total_finalized_blocks() == 2


class TestRunner:
    def test_produces_valid_chain(self):
        deployment = ICIDeployment(
            12, config=ICIConfig(n_clusters=3, limits=TEST_LIMITS)
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        report = runner.produce_blocks(4, txs_per_block=3)
        assert report.blocks_produced == 4
        assert runner.chain_height == 4
        assert deployment.ledger.height == 4
        assert report.total_body_bytes > 0

    def test_identical_streams_across_strategies(self):
        """Two deployments under the same seed see the same blocks."""
        from repro.baselines.full_replication import (
            FullReplicationDeployment,
        )

        ici = ICIDeployment(
            12, config=ICIConfig(n_clusters=3, limits=TEST_LIMITS)
        )
        full = FullReplicationDeployment(12, limits=TEST_LIMITS)
        hashes_ici = ScenarioRunner(
            ici, limits=TEST_LIMITS
        ).produce_blocks(3, 3).block_hashes
        hashes_full = ScenarioRunner(
            full, limits=TEST_LIMITS
        ).produce_blocks(3, 3).block_hashes
        assert hashes_ici == hashes_full

    def test_proposers_rotate(self):
        deployment = ICIDeployment(
            12, config=ICIConfig(n_clusters=3, limits=TEST_LIMITS)
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        proposers = {
            runner.schedule.proposer_at(h) for h in range(1, 30)
        }
        assert len(proposers) > 3

    def test_transactions_flow_through_blocks(self):
        deployment = ICIDeployment(
            12, config=ICIConfig(n_clusters=3, limits=TEST_LIMITS)
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        report = runner.produce_blocks(5, txs_per_block=4)
        assert report.transactions_produced > 0
