"""Property tests: the cached-pad HMAC against the standard library.

:func:`repro.crypto.hashing.hmac_sha256` keeps, per key, the two SHA-256
states HMAC starts from and finishes each MAC from copies of them.  Every
signature, verification and derived public key goes through it, so its
output must be ``hmac.new(key, message, hashlib.sha256).digest()`` byte
for byte: for keys shorter than, equal to and longer than the 64-byte
block (a longer key is hashed first), for any message, and no matter in
which order keys are used or evicted from the pad cache.
``derandomize=True`` keeps CI deterministic.
"""

from __future__ import annotations

import hashlib
import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashing
from repro.crypto.hashing import hmac_sha256
from repro.crypto.keys import KeyPair, derive_public_key
from repro.crypto.signatures import sign, verify

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

#: Empty, one byte, the sizes the program uses (32-byte keys, 33-byte
#: public keys, 47-byte tag keys), the block edge and past it.
KEY_LENGTHS = (0, 1, 32, 33, 47, 64, 65, 200)

keys = st.sampled_from(KEY_LENGTHS).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


def _reference(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


@SETTINGS
@given(key=keys, message=st.binary(max_size=300))
def test_equals_hmac_new(key, message):
    assert hmac_sha256(key, message) == _reference(key, message)


@SETTINGS
@given(
    calls=st.lists(
        st.tuples(keys, st.binary(max_size=80)), min_size=1, max_size=12
    )
)
def test_cached_pads_are_never_advanced(calls):
    """The same key over and over, interleaved with others: a cached
    state is only copied, never updated in place."""
    for key, message in calls + calls:
        assert hmac_sha256(key, message) == _reference(key, message)


def test_every_length_past_a_full_cache():
    """More keys than the cache holds: evicted keys re-derive the same
    pads."""
    hashing._hmac_pads.cache_clear()
    size = hashing.HMAC_PAD_CACHE_SIZE
    messages = (b"", b"m", b"x" * 100)
    for round_ in range(2):
        for index in range(size + 50):
            length = KEY_LENGTHS[index % len(KEY_LENGTHS)]
            key = (index.to_bytes(4, "big") * 64)[:length]
            message = messages[(index + round_) % 3]
            assert hmac_sha256(key, message) == _reference(key, message)
    assert hashing._hmac_pads.cache_info().currsize <= size


def test_signatures_and_keys_match_the_standard_construction():
    """The signature layout and the public key, rebuilt with ``hmac.new``."""
    keypair = KeyPair.from_seed(7)
    message = b"statement"
    tag = _reference(b"repro/sigtag/v1" + keypair.private_key, message)
    outer = _reference(keypair.public_key, message + tag)
    assert sign(keypair, message) == tag + outer
    assert verify(keypair.public_key, message, tag + outer)
    digest = _reference(b"repro/pubkey/v1", keypair.private_key)
    parity = b"\x02" if digest[-1] % 2 == 0 else b"\x03"
    assert derive_public_key(keypair.private_key) == parity + digest
