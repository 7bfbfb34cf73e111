"""Tests for transaction relay, the SPV service, and the CLI."""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.crypto.hashing import sha256
from repro.errors import SimulationError, ValidationError
from repro.net.message import MessageKind
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def deployed(n_nodes=16, n_blocks=0, **config_kwargs):
    config_kwargs.setdefault("n_clusters", 4)
    config_kwargs.setdefault("replication", 1)
    config_kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(n_nodes, config=ICIConfig(**config_kwargs))
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = (
        runner.produce_blocks(n_blocks, txs_per_block=4)
        if n_blocks
        else None
    )
    return deployment, runner, report


class TestTransactionRelay:
    def test_submitted_tx_reaches_every_mempool(self):
        deployment, runner, _ = deployed()
        tx = runner.workload.next_transfer()
        assert tx is not None
        assert deployment.submit_transaction(tx, origin_id=0)
        deployment.run()
        for node in deployment.nodes.values():
            assert tx.txid in node.mempool

    def test_duplicate_submission_returns_false(self):
        deployment, runner, _ = deployed()
        tx = runner.workload.next_transfer()
        deployment.submit_transaction(tx, origin_id=0)
        assert not deployment.submit_transaction(tx, origin_id=0)

    def test_invalid_tx_rejected_at_origin(self):
        from repro.chain.transaction import (
            OutPoint,
            make_signed_transfer,
        )
        from repro.crypto.keys import KeyPair

        deployment, _, _ = deployed()
        ghost = make_signed_transfer(
            KeyPair.from_seed(5),
            [(OutPoint(txid=sha256(b"ghost"), index=0), 100)],
            KeyPair.from_seed(6).address,
            amount=10,
        )
        with pytest.raises(ValidationError):
            deployment.submit_transaction(ghost, origin_id=0)

    def test_relay_driven_blocks_carry_relayed_txs(self):
        deployment, runner, _ = deployed()
        report = runner.produce_blocks_via_relay(4, txs_per_block=4)
        assert report.blocks_produced == 4
        assert report.transactions_produced > 0
        assert deployment.total_finalized_blocks() == 4

    def test_mempools_drain_after_confirmation(self):
        deployment, runner, _ = deployed()
        runner.produce_blocks_via_relay(3, txs_per_block=4)
        for node in deployment.nodes.values():
            assert len(node.mempool) == 0

    def test_relay_traffic_accounted(self):
        deployment, runner, _ = deployed()
        runner.produce_blocks_via_relay(2, txs_per_block=4)
        traffic = deployment.network.traffic
        assert traffic.bytes_by_kind.get(MessageKind.TX_BODY, 0) > 0
        assert traffic.messages_by_kind.get(MessageKind.TX_ANNOUNCE, 0) > 0

    def test_relay_mode_requires_support(self):
        from repro.baselines.full_replication import (
            FullReplicationDeployment,
        )

        deployment = FullReplicationDeployment(8, limits=TEST_LIMITS)
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        with pytest.raises(SimulationError):
            runner.produce_blocks_via_relay(1)

    def test_unincluded_transfers_released(self):
        """Funds offered but not mined become spendable again."""
        deployment, runner, _ = deployed()
        runner.produce_blocks_via_relay(5, txs_per_block=3)
        # After several rounds the workload can still pay someone.
        assert any(
            runner.workload.spendable_value(w) > 0
            for w in runner.workload.wallets
        )


class TestSpvService:
    def test_light_client_syncs_headers(self):
        deployment, _, report = deployed(n_blocks=5)
        light = deployment.attach_light_client()
        assert light.store.header_count == 6  # genesis + 5

    def test_valid_payment_verifies(self):
        deployment, _, report = deployed(n_blocks=5)
        light = deployment.attach_light_client()
        block = report.blocks[2]
        tx = block.transactions[1]
        record = deployment.spv_check(
            light.node_id, block.block_hash, tx.txid
        )
        deployment.run()
        assert record.verified is True
        assert record.latency is not None and record.latency > 0
        assert record.proof_bytes > 0
        assert tx.txid in light.verified_txids

    def test_contact_forwards_to_holder(self):
        """The contact need not hold the body; it routes in-cluster."""
        deployment, _, report = deployed(n_blocks=6)
        light = deployment.attach_light_client()
        contact = deployment.query.light_contacts[light.node_id]
        target = next(
            b
            for b in report.blocks
            if not deployment.nodes[contact].store.has_body(b.block_hash)
        )
        record = deployment.spv_check(
            light.node_id, target.block_hash, target.transactions[0].txid
        )
        deployment.run()
        assert record.verified is True

    def test_absent_transaction_answers_miss(self):
        deployment, _, report = deployed(n_blocks=4)
        light = deployment.attach_light_client()
        block = report.blocks[0]
        record = deployment.spv_check(
            light.node_id, block.block_hash, sha256(b"not-a-tx")
        )
        deployment.run()
        assert record.verified is False
        assert record.latency is not None

    def test_refresh_after_new_blocks(self):
        deployment, runner, _ = deployed(n_blocks=3)
        light = deployment.attach_light_client()
        runner.produce_blocks(2, txs_per_block=2)
        from repro.core.spv import refresh_light_client

        added = refresh_light_client(deployment, light.node_id)
        assert added == 2
        assert light.store.header_count == 6

    def test_multiple_light_clients(self):
        deployment, _, _ = deployed(n_blocks=3)
        a = deployment.attach_light_client()
        b = deployment.attach_light_client()
        assert a.node_id != b.node_id
        assert len(deployment.light_clients) == 2


class TestCli:
    def test_run_command(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run",
                "--strategy",
                "ici",
                "--nodes",
                "12",
                "--groups",
                "3",
                "--blocks",
                "3",
                "--txs",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "blocks produced" in out
        assert "bytes/node" in out

    def test_run_relay(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run",
                "--strategy",
                "ici",
                "--nodes",
                "9",
                "--groups",
                "3",
                "--blocks",
                "2",
                "--relay",
            ]
        ) == 0
        assert "finalized" in capsys.readouterr().out

    def test_relay_rejected_for_full(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run",
                "--strategy",
                "full",
                "--nodes",
                "6",
                "--groups",
                "2",
                "--blocks",
                "1",
                "--relay",
            ]
        ) == 2

    def test_removed_backend_flag_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--backend", "parallel"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            ("chaos --domains --zones 1", "at least 2 zones"),
            ("run --nodes 4 --groups 8", "8 clusters need at least"),
            (
                "endurance --nodes 6 --groups 3 --replication 3",
                "replication 3 exceeds",
            ),
        ],
    )
    def test_impossible_config_is_a_usage_error(
        self, argv, complaint, capsys
    ):
        from repro.cli import main

        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and complaint in err
        assert "Traceback" not in err

    def test_compare_command(self, capsys):
        from repro.cli import main

        assert main(
            [
                "compare",
                "--nodes",
                "12",
                "--groups",
                "3",
                "--blocks",
                "2",
                "--txs",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        for name in ("full", "rapidchain", "ici"):
            assert name in out

    @pytest.mark.parametrize("strategy", ["ici", "full", "rapidchain"])
    def test_join_command(self, capsys, strategy):
        from repro.cli import main

        assert main(
            [
                "join",
                "--strategy",
                strategy,
                "--nodes",
                "12",
                "--groups",
                "3",
                "--blocks",
                "3",
            ]
        ) == 0
        assert "total download" in capsys.readouterr().out

    def test_experiments_command(self, capsys):
        from repro.cli import main

        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "E11" in out
