"""Unit tests for attestations, commit votes, quorum certificates, costs."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.consensus.quorum import Vote
from repro.consensus.votes import (
    CommitVote,
    PrepareAttestation,
    QuorumCertificate,
    VerificationCosts,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.errors import ConsensusError

BLOCK = sha256(b"block")


class TestPrepareAttestation:
    def test_create_and_check(self):
        keypair = KeyPair.from_seed(1)
        att = PrepareAttestation.create(keypair, BLOCK, 1, Vote.ACCEPT)
        assert att.check(keypair.public_key)

    def test_wrong_key_fails(self):
        att = PrepareAttestation.create(
            KeyPair.from_seed(1), BLOCK, 1, Vote.ACCEPT
        )
        assert not att.check(KeyPair.from_seed(2).public_key)

    def test_vote_is_bound(self):
        keypair = KeyPair.from_seed(1)
        att = PrepareAttestation.create(keypair, BLOCK, 1, Vote.ACCEPT)
        flipped = PrepareAttestation(
            block_hash=att.block_hash,
            holder=att.holder,
            vote=Vote.REJECT,
            signature=att.signature,
        )
        assert not flipped.check(keypair.public_key)

    def test_holder_is_bound(self):
        keypair = KeyPair.from_seed(1)
        att = PrepareAttestation.create(keypair, BLOCK, 1, Vote.ACCEPT)
        moved = PrepareAttestation(
            block_hash=att.block_hash,
            holder=2,
            vote=att.vote,
            signature=att.signature,
        )
        assert not moved.check(keypair.public_key)


class TestCommitVote:
    def test_create_and_check(self):
        keypair = KeyPair.from_seed(3)
        commit = CommitVote.create(keypair, BLOCK, 3, Vote.ACCEPT)
        assert commit.check(keypair.public_key)

    def test_prepare_and_commit_domains_differ(self):
        """A prepare signature must not validate as a commit."""
        keypair = KeyPair.from_seed(3)
        prepare = PrepareAttestation.create(keypair, BLOCK, 3, Vote.ACCEPT)
        cross = CommitVote(
            block_hash=BLOCK,
            member=3,
            vote=Vote.ACCEPT,
            signature=prepare.signature,
        )
        assert not cross.check(keypair.public_key)


def certificate_for(members: range, vote: Vote = Vote.ACCEPT):
    commits = tuple(
        CommitVote.create(KeyPair.from_seed(m), BLOCK, m, vote)
        for m in members
    )
    return QuorumCertificate(block_hash=BLOCK, vote=vote, commits=commits)


class TestQuorumCertificate:
    def test_valid_certificate_checks(self):
        cert = certificate_for(range(3))
        keys = {
            m: KeyPair.from_seed(m).public_key for m in range(3)
        }
        assert cert.check(keys, quorum=3)

    def test_below_quorum_fails(self):
        cert = certificate_for(range(2))
        keys = {m: KeyPair.from_seed(m).public_key for m in range(2)}
        assert not cert.check(keys, quorum=3)

    def test_duplicate_members_do_not_inflate(self):
        keypair = KeyPair.from_seed(0)
        commit = CommitVote.create(keypair, BLOCK, 0, Vote.ACCEPT)
        cert = QuorumCertificate(
            block_hash=BLOCK, vote=Vote.ACCEPT, commits=(commit, commit)
        )
        assert not cert.check({0: keypair.public_key}, quorum=2)

    def test_unknown_member_fails(self):
        cert = certificate_for(range(3))
        keys = {m: KeyPair.from_seed(m).public_key for m in range(2)}
        assert not cert.check(keys, quorum=3)

    def test_mixed_blocks_rejected_at_construction(self):
        good = CommitVote.create(KeyPair.from_seed(0), BLOCK, 0, Vote.ACCEPT)
        other = CommitVote.create(
            KeyPair.from_seed(1), sha256(b"other"), 1, Vote.ACCEPT
        )
        with pytest.raises(ConsensusError):
            QuorumCertificate(
                block_hash=BLOCK, vote=Vote.ACCEPT, commits=(good, other)
            )

    def test_mixed_verdicts_rejected(self):
        accept = CommitVote.create(
            KeyPair.from_seed(0), BLOCK, 0, Vote.ACCEPT
        )
        reject = CommitVote.create(
            KeyPair.from_seed(1), BLOCK, 1, Vote.REJECT
        )
        with pytest.raises(ConsensusError):
            QuorumCertificate(
                block_hash=BLOCK, vote=Vote.ACCEPT, commits=(accept, reject)
            )

    def test_wire_bytes_grow_with_quorum(self):
        small = certificate_for(range(2))
        large = certificate_for(range(5))
        assert large.wire_bytes > small.wire_bytes


class TestWireObjectsAreSlotted:
    """One of these per vote per member: fields only, and still values."""

    def objects(self):
        keypair = KeyPair.from_seed(4)
        prepare = PrepareAttestation.create(keypair, BLOCK, 4, Vote.ACCEPT)
        commit = CommitVote.create(keypair, BLOCK, 4, Vote.ACCEPT)
        return prepare, commit, certificate_for(range(3))

    def test_no_instance_dict_and_frozen(self):
        for obj in self.objects():
            assert not hasattr(obj, "__dict__")
            with pytest.raises(FrozenInstanceError):
                obj.vote = Vote.REJECT
            with pytest.raises(FrozenInstanceError):
                del obj.vote
            with pytest.raises((FrozenInstanceError, AttributeError)):
                obj.scratch = 1

    def test_still_compare_hash_and_print_by_value(self):
        for first, second in zip(self.objects(), self.objects()):
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert len({first, second}) == 1
            assert repr(first) == repr(second)
            assert repr(first).startswith(type(first).__name__ + "(block_hash=")
        prepare, commit, _ = self.objects()
        assert prepare != commit
        assert commit != CommitVote(
            commit.block_hash, commit.member, Vote.REJECT, commit.signature
        )
        assert PrepareAttestation.WIRE_BYTES == CommitVote.WIRE_BYTES == 105


class TestVerificationCosts:
    def test_charges_accumulate(self, ledger, alice, bob):
        from tests.conftest import make_transfer_block

        block = make_transfer_block(ledger, alice, bob, 10)
        costs = VerificationCosts()
        full = costs.charge_full_validation(block)
        header = costs.charge_header_check()
        assert costs.full_validations == 1
        assert costs.header_checks == 1
        assert costs.cpu_seconds == pytest.approx(full + header)
        assert full > header
