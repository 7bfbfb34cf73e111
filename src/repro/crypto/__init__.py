"""Crypto substrate: hashing, simulated keys/signatures, Merkle trees."""

from repro.crypto.hashing import (
    HASH_SIZE,
    Hash32,
    ZERO_HASH,
    hash_concat,
    hash_fields,
    sha256,
    sha256d,
    xor_bytes,
)
from repro.crypto.keys import (
    ADDRESS_SIZE,
    PRIVATE_KEY_SIZE,
    PUBLIC_KEY_SIZE,
    KeyPair,
    address_of,
    derive_public_key,
)
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.crypto.signatures import SIGNATURE_SIZE, sign, verify

__all__ = [
    "HASH_SIZE",
    "Hash32",
    "ZERO_HASH",
    "hash_concat",
    "hash_fields",
    "sha256",
    "sha256d",
    "xor_bytes",
    "ADDRESS_SIZE",
    "PRIVATE_KEY_SIZE",
    "PUBLIC_KEY_SIZE",
    "KeyPair",
    "address_of",
    "derive_public_key",
    "MerkleProof",
    "MerkleTree",
    "merkle_root",
    "SIGNATURE_SIZE",
    "sign",
    "verify",
]
