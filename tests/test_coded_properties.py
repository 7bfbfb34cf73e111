"""Property-based tests (hypothesis) for the GF(256) Reed–Solomon codec,
the cluster parity groups built on it, and the XOR fold under it.

The archival tier (``repro.storage.coded``) stakes cluster durability on
this codec, so the battery is exhaustive where it matters: for every
drawn ``(k, n, body)`` the round-trip is checked under **every** loss
pattern of up to ``n - k`` chunks, and the first pattern past the MDS
bound must be rejected loudly.  The draw includes ``n = k + 1``, the
shape of a parity group (``repro.core.parity``), whose own battery
drives the encode/recover pair ``ParityManager`` uses over k whole
bodies of unequal lengths.  Every codec output is a scale-and-XOR, so
:func:`~repro.crypto.hashing.xor_bytes` is checked against the per-byte
oracle ``tests.conftest.per_byte_xor``.  ``derandomize=True`` keeps CI
deterministic — hypothesis explores the same example set every run.

A bounded ``ci`` profile is registered for the codec fuzz smoke step in
the workflow (``HYPOTHESIS_PROFILE=ci``); the default profile matches
``tests/test_properties.py``.
"""

from __future__ import annotations

import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.core.parity import parity_chunk, recover_body
from repro.crypto.hashing import ZERO_HASH, sha256, xor_bytes
from repro.errors import StorageError
from repro.storage.erasure import rs_decode, rs_encode, rs_shard_length
from repro.storage.placement import RendezvousPlacement
from tests.conftest import per_byte_xor

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def header_at(height: int, salt: int = 0) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=ZERO_HASH,
        merkle_root=sha256(f"coded-{salt}-{height}".encode()),
        timestamp=float(height),
        nonce=height,
    )


code_shape = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
).map(lambda pair: (pair[0], pair[0] + pair[1]))

body_strategy = st.binary(min_size=0, max_size=160)


class TestReedSolomonProperties:
    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_every_loss_pattern_within_bound_round_trips(self, shape, body):
        """MDS contract: any ``<= n - k`` erasures recover byte-exact."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        assert len(chunks) == n
        indices = range(n)
        for losses in range(n - k + 1):
            for lost in combinations(indices, losses):
                present = {
                    index: chunks[index]
                    for index in indices
                    if index not in lost
                }
                assert rs_decode(present, k, n, len(body)) == body

    @SETTINGS
    @given(shape=code_shape, body=body_strategy, data=st.data())
    def test_one_past_the_bound_is_rejected(self, shape, body, data):
        """``n - k + 1`` erasures must raise, never return garbage."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        lost = data.draw(
            st.permutations(range(n)).map(lambda p: set(p[: n - k + 1]))
        )
        present = {
            index: chunks[index]
            for index in range(n)
            if index not in lost
        }
        with pytest.raises(StorageError):
            rs_decode(present, k, n, len(body))

    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_padding_is_exact_for_arbitrary_lengths(self, shape, body):
        """Shards share one ceil(len/k) length; decode strips the pad."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        shard_len = rs_shard_length(len(body), k)
        assert all(len(chunk) == shard_len for chunk in chunks)
        assert shard_len * k >= len(body)
        assert shard_len * k - len(body) < max(k, 1)
        # Systematic prefix: data chunks are the body verbatim.
        assert b"".join(chunks[:k])[: len(body)] == body
        decoded = rs_decode(dict(enumerate(chunks)), k, n, len(body))
        assert decoded == body
        assert len(decoded) == len(body)

    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_encode_decode_deterministic_across_repetitions(
        self, shape, body
    ):
        """Same input → byte-identical chunks and decode, every time."""
        k, n = shape
        first = rs_encode(body, k, n)
        for _ in range(3):
            assert rs_encode(body, k, n) == first
        survivors = {index: first[index] for index in range(n - k, n)}
        reference = rs_decode(survivors, k, n, len(body))
        for _ in range(3):
            assert rs_decode(survivors, k, n, len(body)) == reference

    @SETTINGS
    @given(
        members=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=4,
            max_size=12,
            unique=True,
        ),
        height=st.integers(min_value=0, max_value=500),
        shape=code_shape,
    )
    def test_chunk_placement_is_distinct(self, members, height, shape):
        """The archival tier never co-locates two chunks of one block."""
        _, n = shape
        if n > len(members):
            return
        holders = RendezvousPlacement().holders(
            header_at(height), members, n
        )
        assert len(holders) == n
        assert len(set(holders)) == n
        assert set(holders) <= set(members)

    def test_shape_validation(self):
        with pytest.raises(StorageError):
            rs_encode(b"x", 0, 1)
        with pytest.raises(StorageError):
            rs_encode(b"x", 3, 2)
        with pytest.raises(StorageError):
            rs_encode(b"x", 2, 257)
        with pytest.raises(StorageError):
            rs_decode({0: b""}, 1, 1, -1)

    def test_wrong_length_survivor_rejected(self):
        chunks = rs_encode(b"hello world", 3, 5)
        bad = {0: chunks[0], 1: chunks[1], 2: chunks[2] + b"\x00"}
        with pytest.raises(StorageError):
            rs_decode(bad, 3, 5, 11)

    def test_out_of_range_index_rejected(self):
        chunks = rs_encode(b"hello world", 2, 3)
        with pytest.raises(StorageError):
            rs_decode({0: chunks[0], 7: chunks[1]}, 2, 3, 11)

    def test_empty_body_round_trips(self):
        chunks = rs_encode(b"", 3, 5)
        assert all(chunk == b"" for chunk in chunks)
        assert rs_decode({0: b"", 3: b"", 4: b""}, 3, 5, 0) == b""

    @SETTINGS
    @given(
        shape=code_shape,
        shard_len=st.integers(min_value=0, max_value=40).map(
            lambda half: 2 * half + 1
        ),
        data=st.data(),
    )
    def test_odd_shard_lengths_round_trip(self, shape, shard_len, data):
        """Bodies whose shards have an odd length (the last one padded)
        survive every loss pattern within the bound."""
        k, n = shape
        length = data.draw(
            st.integers(
                min_value=(shard_len - 1) * k + 1, max_value=shard_len * k
            )
        )
        body = data.draw(st.binary(min_size=length, max_size=length))
        chunks = rs_encode(body, k, n)
        assert {len(chunk) for chunk in chunks} == {shard_len}
        for lost in combinations(range(n), n - k):
            present = {i: chunks[i] for i in range(n) if i not in lost}
            assert rs_decode(present, k, n, length) == body


group_bodies = st.lists(
    st.binary(min_size=0, max_size=120), min_size=1, max_size=8
)


class TestParityGroupProperties:
    """RS(k, k + 1) over k whole bodies, each padded to the longest."""

    @SETTINGS
    @given(bodies=group_bodies)
    def test_every_single_loss_recovers_byte_exactly(self, bodies):
        parity = parity_chunk(bodies)
        lengths = [len(body) for body in bodies]
        for lost in range(len(bodies)):
            survivors = {
                index: body
                for index, body in enumerate(bodies)
                if index != lost
            }
            assert recover_body(survivors, parity, lengths, lost) == (
                bodies[lost]
            )

    @SETTINGS
    @given(bodies=group_bodies, data=st.data())
    def test_a_second_loss_is_refused(self, bodies, data):
        if len(bodies) < 2:
            return
        lost, also = data.draw(
            st.permutations(range(len(bodies))).map(lambda p: p[:2])
        )
        survivors = {
            index: body
            for index, body in enumerate(bodies)
            if index not in (lost, also)
        }
        parity = parity_chunk(bodies)
        lengths = [len(body) for body in bodies]
        with pytest.raises(StorageError):
            recover_body(survivors, parity, lengths, lost)

    @SETTINGS
    @given(bodies=group_bodies)
    def test_parity_is_as_long_as_the_longest_body(self, bodies):
        assert len(parity_chunk(bodies)) == max(len(body) for body in bodies)

    @SETTINGS
    @given(body=st.binary(min_size=0, max_size=120))
    def test_one_body_is_its_own_parity(self, body):
        assert parity_chunk([body]) == body
        assert recover_body({}, body, [len(body)], 0) == body


def _outcome(fold, chunks):
    """A fold's result, or the type and message of what it raised."""
    try:
        return fold(chunks)
    except ValueError as error:
        return ("ValueError", str(error))


def _wide_view(raw: bytes):
    """A memoryview whose ``len`` counts 2-byte items, not bytes."""
    return memoryview(raw).cast("H") if len(raw) % 2 == 0 else raw


byte_likes = st.sampled_from([bytes, bytearray, memoryview, _wide_view])


class TestXorFold:
    @SETTINGS
    @given(
        length=st.integers(min_value=0, max_value=70),
        count=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_equals_the_per_byte_oracle(self, length, count, data):
        """Any number of equal-length chunks (length 0, one chunk, many;
        bytes, bytearray or memoryviews, also of 2-byte items) folds to
        the oracle's bytes."""
        chunks = [
            data.draw(byte_likes)(
                data.draw(st.binary(min_size=length, max_size=length))
            )
            for _ in range(count)
        ]
        folded = xor_bytes(chunks)
        assert type(folded) is bytes
        assert folded == per_byte_xor(chunks)

    @SETTINGS
    @given(
        chunks=st.lists(st.binary(max_size=6), min_size=0, max_size=5)
    )
    def test_errors_match_the_oracle(self, chunks):
        """Empty input and the first unequal length raise the oracle's
        ``ValueError`` with its message; anything else folds alike."""
        assert _outcome(xor_bytes, chunks) == _outcome(per_byte_xor, chunks)

    def test_both_errors_are_raised(self):
        assert _outcome(xor_bytes, []) == (
            "ValueError",
            "xor_bytes requires at least one chunk",
        )
        assert _outcome(xor_bytes, [b"ab", b"ab", b"abc"]) == (
            "ValueError",
            "xor_bytes requires equal lengths, got 2 and 3",
        )
        assert _outcome(xor_bytes, iter([b"x", b"yz"])) == _outcome(
            per_byte_xor, [b"x", b"yz"]
        )
