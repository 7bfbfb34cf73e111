"""The 160-bit XOR-metric identifier space of the DHT overlay.

Node ids and block keys both map into one Kademlia-style id space:
the first 20 bytes of a domain-separated SHA-256 digest, interpreted
as a big-endian integer.  Closeness is the XOR metric ``d(a, b) =
a ^ b`` — a genuine metric (symmetric, zero iff equal, triangle
inequality under XOR composition) whose unidirectional property makes
iterative lookups converge: every step can strictly decrease the
distance to the target.

Nodes derive their overlay id from their wire ``address`` (the keypair
address they already carry), so the overlay needs no extra identity
material and id assignment stays deterministic per seed.
"""

from __future__ import annotations

from repro.crypto.hashing import Hash32, sha256

#: Width of the identifier space (Kademlia's standard 160).
ID_BITS = 160
#: Bytes of an id on the wire (ids travel as 20-byte digests).
ID_BYTES = ID_BITS // 8

_NODE_DOMAIN = b"dht-node:"
_BLOCK_DOMAIN = b"dht-block:"


def node_key(address: bytes) -> int:
    """A node's 160-bit overlay id, derived from its wire address."""
    return int.from_bytes(sha256(_NODE_DOMAIN + address)[:ID_BYTES], "big")


def block_key(block_hash: Hash32) -> int:
    """The overlay key a block's provider record lives under."""
    return int.from_bytes(
        sha256(_BLOCK_DOMAIN + block_hash)[:ID_BYTES], "big"
    )


def distance(a: int, b: int) -> int:
    """XOR distance between two ids."""
    return a ^ b


def bucket_index(own: int, other: int) -> int:
    """Which k-bucket ``other`` falls into, seen from ``own``.

    Bucket ``i`` holds ids whose XOR distance has its highest set bit at
    position ``i`` — i.e. ids sharing exactly ``ID_BITS - 1 - i`` leading
    prefix bits with ``own``.

    Raises:
        ValueError: for ``own == other`` (a node never buckets itself).
    """
    d = own ^ other
    if d == 0:
        raise ValueError("a node does not bucket its own id")
    return d.bit_length() - 1
