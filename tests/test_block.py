"""Unit tests for blocks, headers, and their commitments."""

from __future__ import annotations

import pytest

from repro.chain.block import (
    HEADER_SIZE,
    Block,
    BlockHeader,
    build_block,
)
from repro.chain.genesis import make_genesis
from repro.chain.transaction import make_coinbase
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError


def simple_block(height: int = 1, n_extra: int = 3) -> Block:
    txs = [make_coinbase(50, b"\x01" * 20, height=height)]
    txs += [
        make_coinbase(0, b"\x02" * 20, height=height, extra=bytes([i]))
        for i in range(n_extra)
    ]
    return build_block(
        height=height,
        prev_hash=sha256(b"prev"),
        transactions=txs,
        timestamp=10.0,
    )


class TestBlockHeader:
    def test_serialize_roundtrip(self):
        header = simple_block().header
        assert BlockHeader.deserialize(header.serialize()) == header

    def test_wire_size_fixed(self):
        header = simple_block().header
        assert len(header.serialize()) == HEADER_SIZE
        assert header.size_bytes == HEADER_SIZE

    def test_deserialize_bad_length(self):
        with pytest.raises(ValidationError):
            BlockHeader.deserialize(b"\x00" * (HEADER_SIZE - 1))

    def test_negative_height_rejected(self):
        with pytest.raises(ValidationError):
            BlockHeader(
                height=-1,
                prev_hash=ZERO_HASH,
                merkle_root=ZERO_HASH,
                timestamp=0.0,
            )

    def test_bad_hash_length_rejected(self):
        with pytest.raises(ValidationError):
            BlockHeader(
                height=0,
                prev_hash=b"short",
                merkle_root=ZERO_HASH,
                timestamp=0.0,
            )

    def test_block_hash_depends_on_every_field(self):
        base = simple_block().header
        changed = BlockHeader(
            height=base.height,
            prev_hash=base.prev_hash,
            merkle_root=base.merkle_root,
            timestamp=base.timestamp,
            nonce=base.nonce + 1,
        )
        assert base.block_hash != changed.block_hash

    def test_genesis_detection(self):
        genesis = make_genesis([KeyPair.from_seed(0).address])
        assert genesis.header.is_genesis
        assert not simple_block().header.is_genesis


class TestBlockBody:
    def test_size_accounting(self):
        block = simple_block(n_extra=2)
        assert block.body_size_bytes == sum(
            tx.size_bytes for tx in block.transactions
        )
        assert block.size_bytes == HEADER_SIZE + block.body_size_bytes

    def test_merkle_commitment_valid(self):
        assert simple_block().verify_merkle_commitment()

    def test_tampered_body_detected(self):
        block = simple_block()
        tampered = Block(
            header=block.header,
            transactions=block.transactions[:-1],
        )
        assert not tampered.verify_merkle_commitment()

    def test_merkle_proofs_per_transaction(self):
        block = simple_block(n_extra=4)
        for index, tx in enumerate(block.transactions):
            proof = block.merkle_proof(index)
            assert proof.leaf == tx.txid
            assert proof.verify(block.header.merkle_root)

    def test_build_block_commits_to_body(self):
        block = simple_block()
        assert block.header.merkle_root == block.merkle_tree.root

    def test_height_shortcut(self):
        assert simple_block(height=9).height == 9
