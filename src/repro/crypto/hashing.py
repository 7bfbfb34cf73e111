"""Hash primitives used throughout the ledger and storage layers.

All hashes in the system are double SHA-256 (as in Bitcoin), exposed as the
32-byte :class:`Hash32` newtype-ish alias plus helpers for hashing structured
values deterministically.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Iterable, Union

#: A 32-byte digest.  Plain ``bytes`` at runtime; the alias documents intent.
Hash32 = bytes

#: Number of bytes in a digest.
HASH_SIZE = 32

#: The all-zero hash, used as the previous-hash of the genesis block.
ZERO_HASH: Hash32 = b"\x00" * HASH_SIZE

_BytesLike = Union[bytes, bytearray, memoryview]


def sha256(data: _BytesLike) -> Hash32:
    """Single SHA-256 of ``data``."""
    return hashlib.sha256(bytes(data)).digest()


def sha256d(data: _BytesLike) -> Hash32:
    """Double SHA-256 of ``data`` (Bitcoin-style block/tx hashing)."""
    return hashlib.sha256(hashlib.sha256(bytes(data)).digest()).digest()


#: Keys whose HMAC pad states are kept: every node's signing-tag key
#: and public key (two per node, 512 at 256 nodes) plus the key domain.
HMAC_PAD_CACHE_SIZE = 1024

_SHA256_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


@lru_cache(maxsize=HMAC_PAD_CACHE_SIZE)
def _hmac_pads(key: bytes):
    """The two SHA-256 states HMAC-SHA256 under ``key`` starts from.

    RFC 2104: a key longer than the block is hashed first, then the key
    is zero-padded to the block and XORed with the inner and outer pads.
    Building them is most of an ``hmac.new``; a node signs and verifies
    under the same few keys all run long.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    return (
        hashlib.sha256(key.translate(_IPAD)),
        hashlib.sha256(key.translate(_OPAD)),
    )


def hmac_sha256(key: bytes, message: bytes) -> Hash32:
    """``hmac.new(key, message, hashlib.sha256).digest()``, byte for byte."""
    inner, outer = _hmac_pads(key)
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


@lru_cache(maxsize=1 << 16)
def hash_concat(left: Hash32, right: Hash32) -> Hash32:
    """Hash the concatenation of two digests (Merkle inner node).

    Memoized: rebuilding the Merkle tree of a block another node already
    built (body deserialization, SPV proof folding) repeats exactly these
    inner-node hashes.
    """
    return sha256d(left + right)


def hash_fields(*fields: _BytesLike) -> Hash32:
    """Hash a sequence of byte fields with length framing.

    Length framing makes the encoding injective: ``hash_fields(b"ab", b"c")``
    differs from ``hash_fields(b"a", b"bc")``.
    """
    hasher = hashlib.sha256()
    for field in fields:
        raw = bytes(field)
        hasher.update(struct.pack(">I", len(raw)))
        hasher.update(raw)
    return hashlib.sha256(hasher.digest()).digest()


def xor_bytes(chunks: Iterable[_BytesLike]) -> bytes:
    """XOR an iterable of equal-length byte strings (GF(256) addition).

    Each chunk folds in as one big integer, so the XOR itself runs at C
    speed over the whole chunk rather than byte by byte.

    Raises:
        ValueError: if the iterable is empty or lengths differ.
    """
    length = -1
    folded = 0
    for chunk in chunks:
        raw = bytes(chunk)
        if length < 0:
            length = len(raw)
        elif len(raw) != length:
            raise ValueError(
                f"xor_bytes requires equal lengths, got {length} and {len(raw)}"
            )
        folded ^= int.from_bytes(raw, "little")
    if length < 0:
        raise ValueError("xor_bytes requires at least one chunk")
    return folded.to_bytes(length, "little")
