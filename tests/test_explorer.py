"""Tests for the chain explorer (address history / tx lookup)."""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.crypto.hashing import sha256
from repro.errors import UnknownTransactionError
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


@pytest.fixture
def explored():
    deployment = ICIDeployment(
        12, config=ICIConfig(n_clusters=3, limits=TEST_LIMITS)
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(6, txs_per_block=4)
    return deployment, runner, report


class TestLookup:
    def test_locates_every_committed_transaction(self, explored):
        deployment, _runner, report = explored
        explorer = deployment.explorer
        for block in report.blocks:
            for position, tx in enumerate(block.transactions):
                location = explorer.locate_transaction(tx.txid)
                assert location.block_hash == block.block_hash
                assert location.index == position
                body = deployment.ledger.store.body(location.block_hash)
                assert body.transactions[location.index] == tx

    def test_unknown_txid_raises(self, explored):
        deployment, *_ = explored
        with pytest.raises(UnknownTransactionError):
            deployment.explorer.locate_transaction(sha256(b"ghost"))

    def test_index_counts_all_transactions(self, explored):
        deployment, _runner, report = explored
        explorer = deployment.explorer
        explorer.history(b"\x00" * 20)  # force the build
        total = 1 + sum(  # genesis coinbase
            len(block.transactions) for block in report.blocks
        )
        assert len(explorer._tx_location) == total


class TestAddressHistory:
    def test_recipient_sees_credit(self, explored):
        deployment, _runner, report = explored
        transfer = next(
            tx
            for block in report.blocks
            for tx in block.transactions
            if not tx.is_coinbase
        )
        recipient = transfer.outputs[0].address
        events = deployment.explorer.history(recipient)
        credits = [
            e for e in events if e.txid == transfer.txid and e.direction == "in"
        ]
        assert credits
        assert credits[0].amount == transfer.outputs[0].value

    def test_sender_sees_debit(self, explored):
        deployment, _runner, report = explored
        explorer = deployment.explorer
        # Find a transfer that spends a previously indexed output.
        for block in report.blocks:
            for tx in block.transactions:
                if tx.is_coinbase:
                    continue
                spender_events = [
                    event
                    for address in {
                        out.address
                        for out in tx.outputs
                    }
                    for event in explorer.history(address)
                ]
                debit_owners = [
                    e for e in spender_events if e.direction == "out"
                ]
                if debit_owners:
                    return  # found at least one debit in a history
        pytest.fail("no debit events found in any address history")

    def test_history_ordered_by_height(self, explored):
        deployment, _runner, report = explored
        explorer = deployment.explorer
        from repro.crypto.keys import KeyPair

        wallet0 = KeyPair.from_seed(0).address  # the genesis faucet
        events = explorer.history(wallet0)
        heights = [e.height for e in events]
        assert heights == sorted(heights)
        assert events, "faucet wallet must have history"

    def test_balance_matches_utxo_set(self, explored):
        deployment, _runner, _report = explored
        from repro.crypto.keys import KeyPair

        wallet = KeyPair.from_seed(1).address
        assert deployment.explorer.balance(
            wallet
        ) == deployment.ledger.utxos.balance_of(wallet)

    def test_unknown_address_empty_history(self, explored):
        deployment, *_ = explored
        assert deployment.explorer.history(b"\xfe" * 20) == []


class TestReorgAwareness:
    def test_index_follows_the_tip(self, explored):
        deployment, runner, report = explored
        explorer = deployment.explorer
        explorer.history(b"\x00" * 20)  # force initial build
        grown = runner.produce_blocks(2, txs_per_block=3)
        for block in grown.blocks:
            for tx in block.transactions:
                assert explorer.locate_transaction(tx.txid).block_hash == (
                    block.block_hash
                )

    def test_stale_branch_history_disappears_after_reorg(self, explored):
        deployment, runner, report = explored
        explorer = deployment.explorer
        # Transactions in blocks 5-6 will be orphaned by a fork from 4.
        orphaned_txids = [
            tx.txid
            for block in report.blocks[4:]
            for tx in block.transactions
        ]
        assert explorer.locate_transaction(orphaned_txids[0])
        runner.produce_fork(fork_from_height=4, length=4)
        assert deployment.reorg_count == 1
        for txid in orphaned_txids:
            with pytest.raises(UnknownTransactionError):
                explorer.locate_transaction(txid)
