"""Simulated key pairs and addresses.

The experiments in this repository measure storage, communication, and
latency — not cryptographic strength — so real elliptic-curve operations are
replaced by a deterministic HMAC-style construction (see
``DESIGN.md`` → *Substitutions*).  Key and signature **sizes** match the real
thing (33-byte compressed public keys, 64-byte signatures, 20-byte addresses)
so byte accounting in the simulator is realistic.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto.hashing import sha256

#: Size in bytes of a private key.
PRIVATE_KEY_SIZE = 32
#: Size in bytes of a (compressed-format) public key.
PUBLIC_KEY_SIZE = 33
#: Size in bytes of an address (RIPEMD160-style truncated hash).
ADDRESS_SIZE = 20

_PUBKEY_DOMAIN = b"repro/pubkey/v1"


def derive_public_key(private_key: bytes) -> bytes:
    """Deterministically derive the 33-byte public key for a private key."""
    if len(private_key) != PRIVATE_KEY_SIZE:
        raise ValueError(f"private key must be {PRIVATE_KEY_SIZE} bytes")
    digest = hmac.new(_PUBKEY_DOMAIN, private_key, hashlib.sha256).digest()
    # Prefix byte mimics a compressed-point parity marker.
    parity = b"\x02" if digest[-1] % 2 == 0 else b"\x03"
    return parity + digest


@lru_cache(maxsize=1 << 16)
def address_of(public_key: bytes) -> bytes:
    """Derive a 20-byte address from a public key (hash-then-truncate).

    Memoized: stateful validation re-derives the address of every input's
    witness on every validating node, over a small population of wallets.
    """
    if len(public_key) != PUBLIC_KEY_SIZE:
        raise ValueError(f"public key must be {PUBLIC_KEY_SIZE} bytes")
    return sha256(public_key)[:ADDRESS_SIZE]


@dataclass(frozen=True)
class KeyPair:
    """A simulated signing key pair.

    Attributes:
        private_key: 32 secret bytes.
        public_key: 33-byte derived public key.
    """

    private_key: bytes
    public_key: bytes = field(default=b"")

    def __post_init__(self) -> None:
        if len(self.private_key) != PRIVATE_KEY_SIZE:
            raise ValueError(f"private key must be {PRIVATE_KEY_SIZE} bytes")
        if not self.public_key:
            object.__setattr__(
                self, "public_key", derive_public_key(self.private_key)
            )
        elif self.public_key != derive_public_key(self.private_key):
            raise ValueError("public key does not match private key")

    @property
    def address(self) -> bytes:
        """The 20-byte address controlled by this key pair."""
        return address_of(self.public_key)

    @classmethod
    def from_seed(cls, seed: int) -> "KeyPair":
        """Derive a key pair deterministically from an integer seed.

        Used pervasively in tests and workloads so runs are reproducible.
        """
        private = sha256(b"repro/seed/" + str(seed).encode("ascii"))
        return cls(private_key=private)

    def __repr__(self) -> str:  # avoid leaking the private key in logs
        return f"KeyPair(address={self.address.hex()[:12]}…)"
