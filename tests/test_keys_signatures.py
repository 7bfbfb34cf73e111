"""Unit tests for simulated keys, addresses, and signatures."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.keys import (
    ADDRESS_SIZE,
    PUBLIC_KEY_SIZE,
    KeyPair,
    address_of,
    derive_public_key,
)
from repro.crypto.signatures import SIGNATURE_SIZE, sign, verify


class TestKeyDerivation:
    def test_public_key_size_and_prefix(self):
        keypair = KeyPair.from_seed(7)
        assert len(keypair.public_key) == PUBLIC_KEY_SIZE
        assert keypair.public_key[0] in (0x02, 0x03)

    def test_derivation_is_deterministic(self):
        assert KeyPair.from_seed(3) == KeyPair.from_seed(3)

    def test_different_seeds_differ(self):
        assert KeyPair.from_seed(1) != KeyPair.from_seed(2)

    def test_bad_private_key_length_raises(self):
        with pytest.raises(ValueError):
            KeyPair(private_key=b"short")
        with pytest.raises(ValueError):
            derive_public_key(b"short")

    def test_mismatched_public_key_rejected(self):
        honest = KeyPair.from_seed(0)
        other = KeyPair.from_seed(1)
        with pytest.raises(ValueError):
            KeyPair(
                private_key=honest.private_key,
                public_key=other.public_key,
            )

    def test_repr_hides_private_key(self):
        keypair = KeyPair.from_seed(0)
        assert keypair.private_key.hex() not in repr(keypair)


class TestAddresses:
    def test_address_size(self):
        assert len(KeyPair.from_seed(0).address) == ADDRESS_SIZE

    def test_address_of_rejects_bad_pubkey(self):
        with pytest.raises(ValueError):
            address_of(b"\x02" + b"\x00" * 10)

    def test_distinct_keys_distinct_addresses(self):
        addresses = {KeyPair.from_seed(i).address for i in range(50)}
        assert len(addresses) == 50


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        keypair = KeyPair.from_seed(5)
        signature = sign(keypair, b"message")
        assert len(signature) == SIGNATURE_SIZE
        assert verify(keypair.public_key, b"message", signature)

    def test_wrong_message_fails(self):
        keypair = KeyPair.from_seed(5)
        signature = sign(keypair, b"message")
        assert not verify(keypair.public_key, b"other", signature)

    def test_wrong_key_fails(self):
        signer = KeyPair.from_seed(5)
        other = KeyPair.from_seed(6)
        signature = sign(signer, b"message")
        assert not verify(other.public_key, b"message", signature)

    def test_truncated_signature_fails(self):
        keypair = KeyPair.from_seed(5)
        signature = sign(keypair, b"message")
        assert not verify(keypair.public_key, b"message", signature[:-1])

    def test_bad_pubkey_length_fails_closed(self):
        keypair = KeyPair.from_seed(5)
        signature = sign(keypair, b"message")
        assert not verify(b"\x02\x03", b"message", signature)

    def test_tampered_tag_fails(self):
        keypair = KeyPair.from_seed(5)
        signature = bytearray(sign(keypair, b"message"))
        signature[0] ^= 0xFF
        assert not verify(keypair.public_key, b"message", bytes(signature))

    @given(st.binary(max_size=256), st.integers(0, 1000))
    def test_roundtrip_property(self, message, seed):
        keypair = KeyPair.from_seed(seed)
        assert verify(keypair.public_key, message, sign(keypair, message))
