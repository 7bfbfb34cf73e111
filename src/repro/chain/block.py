"""Blocks and block headers.

A block separates a fixed-size **header** (what every node keeps, in every
strategy) from the **body** (the transaction list — what ICIStrategy
distributes across a cluster).  Header hashing commits to the Merkle root of
the body, so any node holding only headers can still verify a transaction
against a Merkle proof supplied by the body's holder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.crypto.hashing import Hash32, ZERO_HASH, sha256d
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import ValidationError
from repro.chain.transaction import Transaction

#: Fixed wire size of a block header in bytes (mirrors Bitcoin's 80 plus a
#: 4-byte explicit height field used by the placement policies).
HEADER_SIZE = 84


@dataclass(frozen=True)
class BlockHeader:
    """The fixed-size summary of a block.

    Attributes:
        height: 0-based chain height (genesis is 0).
        prev_hash: hash of the previous block's header.
        merkle_root: Merkle root over the body's transaction ids.
        timestamp: simulated wall-clock seconds when the block was sealed.
        nonce: proposer-chosen value (PoW abstraction; see
            :mod:`repro.consensus.proposer`).
    """

    height: int
    prev_hash: Hash32
    merkle_root: Hash32
    timestamp: float
    nonce: int = 0

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValidationError("block height must be non-negative")
        if len(self.prev_hash) != 32 or len(self.merkle_root) != 32:
            raise ValidationError("header hashes must be 32 bytes")

    def serialize(self) -> bytes:
        """84-byte wire form; its double SHA-256 is the block hash."""
        return (
            struct.pack(">I", self.height)
            + self.prev_hash
            + self.merkle_root
            + struct.pack(">d", self.timestamp)
            + struct.pack(">Q", self.nonce)
        )

    @classmethod
    def deserialize(cls, raw: bytes) -> "BlockHeader":
        """Parse the wire encoding produced by :meth:`serialize`."""
        if len(raw) != HEADER_SIZE:
            raise ValidationError(
                f"header wire form must be {HEADER_SIZE} bytes"
            )
        height = struct.unpack(">I", raw[0:4])[0]
        prev_hash = raw[4:36]
        merkle_root = raw[36:68]
        timestamp = struct.unpack(">d", raw[68:76])[0]
        nonce = struct.unpack(">Q", raw[76:84])[0]
        return cls(
            height=height,
            prev_hash=prev_hash,
            merkle_root=merkle_root,
            timestamp=timestamp,
            nonce=nonce,
        )

    @cached_property
    def block_hash(self) -> Hash32:
        """The block's identity: double SHA-256 of the header."""
        return sha256d(self.serialize())

    @property
    def size_bytes(self) -> int:
        """Wire size in bytes."""
        return HEADER_SIZE

    @property
    def is_genesis(self) -> bool:
        """True for the height-0 block with a zero parent."""
        return self.height == 0 and self.prev_hash == ZERO_HASH


@dataclass(frozen=True)
class Block:
    """A full block: header plus ordered transaction body."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    @property
    def block_hash(self) -> Hash32:
        """The block's identity (hash of its header)."""
        return self.header.block_hash

    @property
    def height(self) -> int:
        """The block's chain height."""
        return self.header.height

    @cached_property
    def body_size_bytes(self) -> int:
        """Bytes of the transaction body (what collaborative storage splits)."""
        return sum(tx.size_bytes for tx in self.transactions)

    @property
    def size_bytes(self) -> int:
        """Total wire size: header + body."""
        return HEADER_SIZE + self.body_size_bytes

    @cached_property
    def merkle_tree(self) -> MerkleTree:
        """Merkle tree over the body's transaction ids."""
        return MerkleTree([tx.txid for tx in self.transactions])

    def merkle_proof(self, tx_index: int) -> MerkleProof:
        """Inclusion proof for the transaction at ``tx_index``."""
        return self.merkle_tree.proof(tx_index)

    def verify_merkle_commitment(self) -> bool:
        """Check that the header's Merkle root matches the body."""
        return self.merkle_tree.root == self.header.merkle_root


def serialize_body(block: Block) -> bytes:
    """Deterministic wire form of a block's transaction list.

    Used by the parity extension and the coded archival tier, which
    Reed–Solomon-code body encodings (:mod:`repro.storage.erasure`).
    """
    parts = [struct.pack(">I", len(block.transactions))]
    for tx in block.transactions:
        raw = tx.serialize()
        parts.append(struct.pack(">I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def deserialize_body(header: BlockHeader, raw: bytes) -> Block:
    """Rebuild a block from its header and a serialized body.

    Raises:
        ValidationError: on malformed bytes or when the reconstructed
            body does not match the header's Merkle commitment.
    """
    offset = 0

    def take(count: int) -> bytes:
        """Consume ``count`` bytes, erroring on truncation."""
        nonlocal offset
        if offset + count > len(raw):
            raise ValidationError("truncated block body encoding")
        piece = raw[offset : offset + count]
        offset += count
        return piece

    (count,) = struct.unpack(">I", take(4))
    transactions = []
    for _ in range(count):
        (tx_len,) = struct.unpack(">I", take(4))
        transactions.append(Transaction.deserialize(take(tx_len)))
    if offset != len(raw):
        raise ValidationError("trailing bytes after block body encoding")
    block = Block(header=header, transactions=tuple(transactions))
    if not block.verify_merkle_commitment():
        raise ValidationError(
            "reconstructed body does not match header commitment"
        )
    return block


def build_block(
    height: int,
    prev_hash: Hash32,
    transactions: Sequence[Transaction],
    timestamp: float,
    nonce: int = 0,
) -> Block:
    """Assemble a block, computing the Merkle commitment from the body."""
    tree = MerkleTree([tx.txid for tx in transactions])
    header = BlockHeader(
        height=height,
        prev_hash=prev_hash,
        merkle_root=tree.root,
        timestamp=timestamp,
        nonce=nonce,
    )
    return Block(header=header, transactions=tuple(transactions))
