"""Tests for the communication closed forms and workload fees."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.storage.communication import (
    full_replication_block_bytes,
    header_flood_bytes,
    ici_advantage_factor,
    ici_block_bytes,
)


class TestClosedForms:
    def test_header_flood_scales_with_n(self):
        assert header_flood_bytes(200) > header_flood_bytes(50)

    def test_full_replication_dominates(self):
        body = 100_000
        full = full_replication_block_bytes(400, body)
        ici = ici_block_bytes(400, 16, 1, body)
        assert ici < full

    def test_ici_advantage_grows_with_body(self):
        small = ici_advantage_factor(1000, 16, 1, 10_000)
        large = ici_advantage_factor(1000, 16, 1, 1_000_000)
        assert large > small

    def test_advantage_approaches_m_over_r(self):
        factor = ici_advantage_factor(1000, 16, 1, 100_000_000)
        assert factor == pytest.approx(16, rel=0.05)
        factor_r2 = ici_advantage_factor(1000, 16, 2, 100_000_000)
        assert factor_r2 == pytest.approx(8, rel=0.05)

    def test_vote_aggregation_cheaper_at_scale(self):
        body = 1_000
        aggregated = ici_block_bytes(
            256, 64, 1, body, aggregate_votes=True
        )
        broadcast = ici_block_bytes(
            256, 64, 1, body, aggregate_votes=False
        )
        assert aggregated < broadcast

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            ici_block_bytes(10, 20, 1, 100)
        with pytest.raises(ConfigurationError):
            ici_block_bytes(10, 5, 6, 100)

    def test_closed_form_tracks_simulator(self):
        """Measured ICI dissemination lands near the analytic model."""
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment
        from repro.sim.runner import ScenarioRunner
        from tests.conftest import TEST_LIMITS

        n_nodes, clusters = 24, 3  # cluster size 8
        deployment = ICIDeployment(
            n_nodes,
            config=ICIConfig(
                n_clusters=clusters, replication=1, limits=TEST_LIMITS
            ),
        )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        report = runner.produce_blocks(6, txs_per_block=4)
        measured = deployment.network.traffic.total_bytes / 6
        mean_body = report.total_body_bytes / 6
        modeled = ici_block_bytes(n_nodes, 8, 1, mean_body)
        assert measured == pytest.approx(modeled, rel=0.5)


class TestWorkloadFees:
    def test_transfers_leave_fees(self, genesis):
        from repro.sim.workload import TransactionWorkload, WorkloadConfig

        workload = TransactionWorkload(
            WorkloadConfig(fee_per_transfer=250, seed=1)
        )
        workload.on_block_confirmed(genesis)
        tx = workload.next_transfer()
        assert tx is not None
        # Fee = inputs − outputs; inputs are genesis faucet outputs.
        total_in = genesis.transactions[0].outputs[0].value
        assert total_in - tx.total_output_value == 250

    def test_negative_fee_rejected(self):
        from repro.sim.workload import WorkloadConfig

        with pytest.raises(ConfigurationError):
            WorkloadConfig(fee_per_transfer=-1)

    def test_transfer_fee_validation(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        tx = make_signed_transfer(
            alice,
            [(OutPoint(txid=sha256(b"p"), index=0), 100)],
            b"\x09" * 20,
            amount=40,
            fee=10,
        )
        assert tx.total_output_value == 90  # 40 paid + 50 change

    def test_insufficient_for_fee_rejected(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        with pytest.raises(ValidationError, match="insufficient"):
            make_signed_transfer(
                alice,
                [(OutPoint(txid=sha256(b"p"), index=0), 100)],
                b"\x09" * 20,
                amount=95,
                fee=10,
            )

    def test_negative_fee_in_transfer_rejected(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        with pytest.raises(ValidationError, match="fee"):
            make_signed_transfer(
                alice,
                [(OutPoint(txid=sha256(b"p"), index=0), 100)],
                b"\x09" * 20,
                amount=10,
                fee=-1,
            )

    def test_proposer_claims_fees_end_to_end(self):
        """Coinbase = subsidy + collected fees, validated by every node."""
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment
        from repro.sim.runner import ScenarioRunner
        from repro.sim.workload import TransactionWorkload, WorkloadConfig
        from tests.conftest import TEST_LIMITS

        deployment = ICIDeployment(
            12,
            config=ICIConfig(n_clusters=3, limits=TEST_LIMITS),
        )
        workload = TransactionWorkload(
            WorkloadConfig(fee_per_transfer=100, seed=2)
        )
        runner = ScenarioRunner(
            deployment, workload=workload, limits=TEST_LIMITS
        )
        report = runner.produce_blocks(4, txs_per_block=3)
        assert not deployment.metrics.blocks_rejected
        for block in report.blocks:
            fees = 100 * (len(block.transactions) - 1)
            assert (
                block.transactions[0].total_output_value
                == TEST_LIMITS.block_reward + fees
            )
