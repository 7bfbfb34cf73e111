"""Unit tests for the mempool."""

from __future__ import annotations

import pytest

from repro.chain.mempool import Mempool
from repro.chain.transaction import make_coinbase, make_signed_transfer
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.errors import UnknownTransactionError, ValidationError
from tests.conftest import TEST_LIMITS


@pytest.fixture
def pool() -> Mempool:
    return Mempool(limits=TEST_LIMITS)


def transfer_from(ledger, sender, amount=100, payload=b""):
    return make_signed_transfer(
        sender,
        ledger.utxos.outpoints_of(sender.address),
        KeyPair.from_seed(50).address,
        amount=amount,
        payload=payload,
    )


class TestAdmission:
    def test_valid_transfer_admitted(self, pool, ledger, alice):
        tx = transfer_from(ledger, alice)
        assert pool.add(tx, ledger.utxos)
        assert tx.txid in pool
        assert pool.get(tx.txid) == tx
        assert len(pool) == 1

    def test_duplicate_returns_false(self, pool, ledger, alice):
        tx = transfer_from(ledger, alice)
        pool.add(tx, ledger.utxos)
        assert not pool.add(tx, ledger.utxos)

    def test_coinbase_rejected(self, pool, ledger):
        with pytest.raises(ValidationError, match="coinbase"):
            pool.add(make_coinbase(1, b"\x01" * 20, 1), ledger.utxos)

    def test_conflicting_spend_rejected(self, pool, ledger, alice):
        tx1 = transfer_from(ledger, alice, amount=100)
        tx2 = transfer_from(ledger, alice, amount=200)
        pool.add(tx1, ledger.utxos)
        with pytest.raises(ValidationError, match="conflict"):
            pool.add(tx2, ledger.utxos)

    def test_unknown_inputs_rejected(self, pool, ledger, bob):
        from repro.chain.transaction import OutPoint

        tx = make_signed_transfer(
            bob,
            [(OutPoint(txid=sha256(b"ghost"), index=0), 500)],
            KeyPair.from_seed(50).address,
            amount=100,
        )
        with pytest.raises(ValidationError):
            pool.add(tx, ledger.utxos)

    def test_pool_capacity_enforced(self, ledger, alice):
        pool = Mempool(limits=TEST_LIMITS, max_transactions=1)
        pool.add(transfer_from(ledger, alice), ledger.utxos)
        other = make_signed_transfer(
            alice,
            ledger.utxos.outpoints_of(alice.address),
            KeyPair.from_seed(51).address,
            amount=77,
            payload=b"different",
        )
        with pytest.raises(ValidationError):
            pool.add(other, ledger.utxos)

    def test_get_unknown_raises(self, pool):
        with pytest.raises(UnknownTransactionError):
            pool.get(sha256(b"missing"))


class TestRemoval:
    def test_remove_frees_outpoints(self, pool, ledger, alice):
        tx1 = transfer_from(ledger, alice, amount=100)
        pool.add(tx1, ledger.utxos)
        assert pool.remove(tx1.txid)
        # The same outputs can now be re-offered.
        tx2 = transfer_from(ledger, alice, amount=200)
        assert pool.add(tx2, ledger.utxos)

    def test_remove_missing_returns_false(self, pool):
        assert not pool.remove(sha256(b"missing"))

    def test_remove_confirmed_evicts_conflicts(self, pool, ledger, alice):
        pooled = transfer_from(ledger, alice, amount=100)
        pool.add(pooled, ledger.utxos)
        # A *different* transaction spending the same outputs confirms.
        confirmed = transfer_from(ledger, alice, amount=333)
        removed = pool.remove_confirmed([confirmed])
        assert removed == 1
        assert pooled.txid not in pool


class TestSelection:
    def test_selection_respects_byte_budget(self, pool, ledger, alice, bob):
        # Fund bob so two independent transfers exist.
        from tests.conftest import make_transfer_block

        block = make_transfer_block(ledger, alice, bob, 10_000)
        ledger.accept_block(block)
        tx_a = transfer_from(ledger, alice, amount=50, payload=b"a" * 400)
        tx_b = transfer_from(ledger, bob, amount=60)
        pool.add(tx_a, ledger.utxos)
        pool.add(tx_b, ledger.utxos)
        tight = pool.select_for_block(max_body_bytes=tx_b.size_bytes + 10)
        assert tx_a not in tight
        assert tx_b in tight

    def test_selection_orders_by_fee_rate(self, pool, ledger, alice, bob):
        from tests.conftest import make_transfer_block
        from repro.chain.transaction import (
            Transaction,
            TxInput,
            TxOutput,
        )
        from repro.crypto.signatures import sign

        block = make_transfer_block(ledger, alice, bob, 10_000)
        ledger.accept_block(block)
        # bob pays a 500-unit fee (outputs < inputs); alice pays none.
        spendable_bob = ledger.utxos.outpoints_of(bob.address)
        total = sum(v for _, v in spendable_bob)
        unsigned = Transaction(
            inputs=tuple(TxInput(outpoint=op) for op, _ in spendable_bob),
            outputs=(
                TxOutput(
                    value=total - 500,
                    address=KeyPair.from_seed(60).address,
                ),
            ),
        )
        signature = sign(bob, unsigned.signing_digest)
        fee_tx = Transaction(
            inputs=tuple(
                TxInput(
                    outpoint=op,
                    public_key=bob.public_key,
                    signature=signature,
                )
                for op, _ in spendable_bob
            ),
            outputs=unsigned.outputs,
        )
        free_tx = transfer_from(ledger, alice, amount=77)
        pool.add(fee_tx, ledger.utxos)
        pool.add(free_tx, ledger.utxos)
        chosen = pool.select_for_block(max_body_bytes=100_000)
        assert chosen[0].txid == fee_tx.txid

