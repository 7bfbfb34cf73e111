"""Unit tests for consensus-rule validation."""

from __future__ import annotations

import pytest

from repro.chain.block import Block, build_block
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    make_coinbase,
    make_signed_transfer,
)
from repro.chain.validation import (
    ValidationLimits,
    check_block_stateless,
    check_header_linkage,
    check_transaction_stateful,
    check_transaction_stateless,
    estimate_verification_cost,
    header_check_cost,
    validate_block,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import sign
from repro.errors import ValidationError
from tests.conftest import TEST_LIMITS, make_transfer_block


def signed_transfer(sender: KeyPair, value: int = 100, amount: int = 40):
    return make_signed_transfer(
        sender,
        [(OutPoint(txid=sha256(b"prev"), index=0), value)],
        KeyPair.from_seed(99).address,
        amount=amount,
    )


class TestStatelessTx:
    def test_valid_transfer_passes(self, alice):
        check_transaction_stateless(signed_transfer(alice))

    def test_oversize_rejected(self, alice):
        limits = ValidationLimits(max_tx_bytes=64)
        with pytest.raises(ValidationError, match="exceeds cap"):
            check_transaction_stateless(signed_transfer(alice), limits)

    def test_duplicate_outpoint_rejected(self, alice):
        op = OutPoint(txid=sha256(b"p"), index=0)
        tx = Transaction(
            inputs=(TxInput(outpoint=op), TxInput(outpoint=op)),
            outputs=(TxOutput(value=1, address=alice.address),),
        )
        with pytest.raises(ValidationError, match="twice"):
            check_transaction_stateless(tx)

    def test_missing_witness_rejected(self, alice):
        tx = Transaction(
            inputs=(TxInput(outpoint=OutPoint(txid=sha256(b"p"), index=0)),),
            outputs=(TxOutput(value=1, address=alice.address),),
        )
        with pytest.raises(ValidationError, match="witness"):
            check_transaction_stateless(tx)

    def test_bad_signature_rejected(self, alice, bob):
        tx = signed_transfer(alice)
        forged_inputs = tuple(
            TxInput(
                outpoint=inp.outpoint,
                public_key=inp.public_key,
                signature=sign(bob, b"unrelated"),
            )
            for inp in tx.inputs
        )
        forged = Transaction(
            inputs=forged_inputs,
            outputs=tx.outputs,
            payload=tx.payload,
            lock_height=tx.lock_height,
        )
        with pytest.raises(ValidationError, match="signature"):
            check_transaction_stateless(forged)


class TestHeaderLinkage:
    def test_valid_linkage(self, genesis):
        child = build_block(
            height=1,
            prev_hash=genesis.block_hash,
            transactions=[make_coinbase(50, b"\x01" * 20, height=1)],
            timestamp=genesis.header.timestamp + 1,
        )
        check_header_linkage(child.header, genesis.header)

    def test_wrong_height(self, genesis):
        child = build_block(
            height=2,
            prev_hash=genesis.block_hash,
            transactions=[make_coinbase(50, b"\x01" * 20, height=2)],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError, match="height"):
            check_header_linkage(child.header, genesis.header)

    def test_wrong_parent_hash(self, genesis):
        child = build_block(
            height=1,
            prev_hash=sha256(b"other"),
            transactions=[make_coinbase(50, b"\x01" * 20, height=1)],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError, match="prev_hash"):
            check_header_linkage(child.header, genesis.header)

    def test_backwards_timestamp(self, genesis):
        child = build_block(
            height=1,
            prev_hash=genesis.block_hash,
            transactions=[make_coinbase(50, b"\x01" * 20, height=1)],
            timestamp=genesis.header.timestamp - 1,
        )
        with pytest.raises(ValidationError, match="timestamp"):
            check_header_linkage(child.header, genesis.header)


class TestStatelessBlock:
    def test_empty_block_rejected(self, genesis):
        headerless = Block(header=genesis.header, transactions=())
        with pytest.raises(ValidationError, match="coinbase"):
            check_block_stateless(headerless)

    def test_first_tx_must_be_coinbase(self, alice):
        block = build_block(
            height=1,
            prev_hash=sha256(b"p"),
            transactions=[signed_transfer(alice)],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError, match="coinbase"):
            check_block_stateless(block)

    def test_second_coinbase_rejected(self):
        block = build_block(
            height=1,
            prev_hash=sha256(b"p"),
            transactions=[
                make_coinbase(50, b"\x01" * 20, height=1),
                make_coinbase(50, b"\x02" * 20, height=1),
            ],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError, match="position 0"):
            check_block_stateless(block)

    def test_oversize_body_rejected(self):
        limits = ValidationLimits(max_block_body_bytes=100)
        block = build_block(
            height=1,
            prev_hash=sha256(b"p"),
            transactions=[
                make_coinbase(50, b"\x01" * 20, height=1, extra=b"x" * 200)
            ],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError, match="body"):
            check_block_stateless(block, limits)

    def test_merkle_mismatch_rejected(self, genesis):
        block = build_block(
            height=1,
            prev_hash=sha256(b"p"),
            transactions=[make_coinbase(50, b"\x01" * 20, height=1)],
            timestamp=1.0,
        )
        tampered = Block(
            header=block.header,
            transactions=(
                make_coinbase(50, b"\x02" * 20, height=1),
            ),
        )
        with pytest.raises(ValidationError, match="merkle"):
            check_block_stateless(tampered)


class TestStatefulValidation:
    def test_transfer_block_validates(self, ledger, alice, bob):
        block = make_transfer_block(ledger, alice, bob, 500)
        validate_block(
            block, ledger.tip, ledger.utxos, TEST_LIMITS
        )

    def test_fee_computed(self, ledger, alice):
        spendable = ledger.utxos.outpoints_of(alice.address)
        tx = make_signed_transfer(
            alice, spendable, KeyPair.from_seed(5).address, amount=100
        )
        assert check_transaction_stateful(tx, ledger.utxos) == 0

    def test_unknown_input_rejected(self, ledger, alice):
        tx = signed_transfer(alice)
        with pytest.raises(ValidationError, match="unknown"):
            check_transaction_stateful(tx, ledger.utxos)

    def test_stolen_output_rejected(self, ledger, alice, bob):
        """bob signs a spend of alice's output: ownership check fires."""
        spendable = ledger.utxos.outpoints_of(alice.address)
        tx = make_signed_transfer(
            bob,
            spendable,  # alice's outpoints, bob's signature/key
            KeyPair.from_seed(5).address,
            amount=10,
        )
        with pytest.raises(ValidationError, match="own"):
            check_transaction_stateful(tx, ledger.utxos)

    def test_excess_coinbase_rejected(self, ledger, alice, bob):
        block = make_transfer_block(ledger, alice, bob, 500)
        greedy_coinbase = make_coinbase(
            TEST_LIMITS.block_reward * 2,
            alice.address,
            height=block.height,
        )
        greedy = build_block(
            height=block.height,
            prev_hash=block.header.prev_hash,
            transactions=[greedy_coinbase, *block.transactions[1:]],
            timestamp=block.header.timestamp,
        )
        with pytest.raises(ValidationError, match="coinbase claims"):
            validate_block(greedy, ledger.tip, ledger.utxos, TEST_LIMITS)

    def test_intra_block_spend_allowed(self, ledger, alice, bob):
        """tx2 spending tx1's output inside one block is valid."""
        spendable = ledger.utxos.outpoints_of(alice.address)
        tx1 = make_signed_transfer(
            alice, spendable, bob.address, amount=1_000
        )
        tx2 = make_signed_transfer(
            bob,
            [(OutPoint(txid=tx1.txid, index=0), 1_000)],
            alice.address,
            amount=600,
        )
        height = ledger.height + 1
        block = build_block(
            height=height,
            prev_hash=ledger.tip.block_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward, alice.address, height
                ),
                tx1,
                tx2,
            ],
            timestamp=ledger.tip.timestamp + 1,
        )
        validate_block(block, ledger.tip, ledger.utxos, TEST_LIMITS)

    def test_intra_block_double_spend_rejected(self, ledger, alice, bob):
        spendable = ledger.utxos.outpoints_of(alice.address)
        tx1 = make_signed_transfer(alice, spendable, bob.address, amount=10)
        tx2 = make_signed_transfer(alice, spendable, bob.address, amount=20)
        height = ledger.height + 1
        block = build_block(
            height=height,
            prev_hash=ledger.tip.block_hash,
            transactions=[
                make_coinbase(
                    TEST_LIMITS.block_reward, alice.address, height
                ),
                tx1,
                tx2,
            ],
            timestamp=ledger.tip.timestamp + 1,
        )
        with pytest.raises(ValidationError, match="double-spend"):
            validate_block(block, ledger.tip, ledger.utxos, TEST_LIMITS)

    def test_genesis_with_parent_context(self, genesis):
        from repro.chain.utxo import UtxoSet

        validate_block(genesis, None, UtxoSet())

    def test_non_genesis_without_parent_rejected(self, ledger, alice, bob):
        from repro.chain.utxo import UtxoSet

        block = make_transfer_block(ledger, alice, bob, 10)
        with pytest.raises(ValidationError, match="no parent"):
            validate_block(block, None, UtxoSet())


class TestCostModel:
    def test_verification_cost_scales_with_signatures(self, ledger, alice, bob):
        small = make_transfer_block(ledger, alice, bob, 10)
        assert estimate_verification_cost(small) > 0

    def test_header_check_is_cheaper_than_body(self, ledger, alice, bob):
        block = make_transfer_block(ledger, alice, bob, 10)
        assert header_check_cost() < estimate_verification_cost(block)
