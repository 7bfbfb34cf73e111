"""Unit + property tests for the UTXO set."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.genesis import make_genesis
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    TxOutput,
    make_coinbase,
)
from repro.chain.utxo import UndoRecord, UtxoSet
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError


def mint(utxos: UtxoSet, value: int, address: bytes, tag: bytes) -> OutPoint:
    """Apply a coinbase-like mint and return its outpoint."""
    tx = Transaction(
        inputs=(),
        outputs=(TxOutput(value=value, address=address),),
        payload=tag,
    )
    utxos.apply_transaction(tx, height=0)
    return OutPoint(txid=tx.txid, index=0)


class TestBasicOps:
    def test_starts_empty(self):
        utxos = UtxoSet()
        assert len(utxos) == 0
        assert utxos.total_value == 0

    def test_mint_and_lookup(self):
        utxos = UtxoSet()
        op = mint(utxos, 100, b"\x01" * 20, b"a")
        assert op in utxos
        entry = utxos.get(op)
        assert entry is not None and entry.output.value == 100
        assert utxos.total_value == 100

    def test_spend_removes_and_creates(self):
        utxos = UtxoSet()
        op = mint(utxos, 100, b"\x01" * 20, b"a")
        spend = Transaction(
            inputs=(
                # witness unchecked at UTXO layer (validation layer's job)
                __import__(
                    "repro.chain.transaction", fromlist=["TxInput"]
                ).TxInput(outpoint=op),
            ),
            outputs=(TxOutput(value=100, address=b"\x02" * 20),),
        )
        utxos.apply_transaction(spend, height=1)
        assert op not in utxos
        assert utxos.total_value == 100
        assert utxos.balance_of(b"\x02" * 20) == 100

    def test_double_spend_rejected(self):
        utxos = UtxoSet()
        op = mint(utxos, 100, b"\x01" * 20, b"a")
        from repro.chain.transaction import TxInput

        spend = Transaction(
            inputs=(TxInput(outpoint=op),),
            outputs=(TxOutput(value=100, address=b"\x02" * 20),),
        )
        utxos.apply_transaction(spend, height=1)
        with pytest.raises(ValidationError):
            utxos.apply_transaction(spend, height=2)

    def test_unknown_outpoint_rejected(self):
        from repro.chain.transaction import TxInput

        utxos = UtxoSet()
        ghost = OutPoint(txid=sha256(b"ghost"), index=0)
        tx = Transaction(
            inputs=(TxInput(outpoint=ghost),),
            outputs=(TxOutput(value=1, address=b"\x02" * 20),),
        )
        with pytest.raises(ValidationError):
            utxos.apply_transaction(tx, height=1)

    def test_outpoints_of_sorted_deterministically(self):
        utxos = UtxoSet()
        address = b"\x03" * 20
        for tag in (b"x", b"y", b"z"):
            mint(utxos, 10, address, tag)
        listed = utxos.outpoints_of(address)
        assert listed == sorted(listed, key=lambda p: (p[0].txid, p[0].index))
        assert len(listed) == 3


class TestUndo:
    def test_apply_block_then_undo_restores_state(self):
        genesis = make_genesis([KeyPair.from_seed(0).address])
        utxos = UtxoSet()
        before_len = len(utxos)
        undo = utxos.apply_block(genesis)
        assert len(utxos) == 1
        utxos.undo_record(undo)
        assert len(utxos) == before_len
        assert utxos.total_value == 0

    def test_partial_failure_rolls_back(self):
        """A block with a bad tx must leave the set untouched."""
        from repro.chain.block import build_block
        from repro.chain.transaction import TxInput

        genesis = make_genesis([KeyPair.from_seed(0).address])
        utxos = UtxoSet()
        utxos.apply_block(genesis)
        snapshot_value = utxos.total_value
        snapshot_len = len(utxos)

        good = make_coinbase(50, b"\x01" * 20, height=1)
        bad = Transaction(
            inputs=(
                TxInput(outpoint=OutPoint(txid=sha256(b"ghost"), index=0)),
            ),
            outputs=(TxOutput(value=1, address=b"\x02" * 20),),
        )
        block = build_block(
            height=1,
            prev_hash=genesis.block_hash,
            transactions=[good, bad],
            timestamp=1.0,
        )
        with pytest.raises(ValidationError):
            utxos.apply_block(block)
        assert utxos.total_value == snapshot_value
        assert len(utxos) == snapshot_len

    def test_undo_is_idempotent_on_cleared_record(self):
        utxos = UtxoSet()
        mint(utxos, 5, b"\x01" * 20, b"a")
        record = UndoRecord(block_hash=sha256(b"h"))
        utxos.undo_record(record)  # empty record: no-op
        assert utxos.total_value == 5


class TestConservationProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 1000), st.integers(0, 4)),
            min_size=1,
            max_size=12,
        )
    )
    def test_value_conserved_under_transfers(self, mints):
        """Total value never changes when outputs are merely moved."""
        from repro.chain.transaction import TxInput

        utxos = UtxoSet()
        addresses = [bytes([i]) * 20 for i in range(5)]
        outpoints = []
        for index, (value, owner) in enumerate(mints):
            outpoints.append(
                (
                    mint(
                        utxos,
                        value,
                        addresses[owner],
                        index.to_bytes(4, "big"),
                    ),
                    value,
                )
            )
        total_before = utxos.total_value
        # Move everything to address 0 in one sweep transaction.
        sweep = Transaction(
            inputs=tuple(TxInput(outpoint=op) for op, _ in outpoints),
            outputs=(
                TxOutput(
                    value=sum(v for _, v in outpoints),
                    address=addresses[0],
                ),
            ),
        )
        utxos.apply_transaction(sweep, height=1)
        assert utxos.total_value == total_before
        assert utxos.balance_of(addresses[0]) == total_before
