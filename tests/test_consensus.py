"""Unit tests for quorum math, vote tallies, the PBFT round, proposers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mempool import Mempool
from repro.consensus.pbft import RoundPhase, VerificationRound
from repro.consensus.proposer import BlockProposer, ProposerSchedule
from repro.consensus.quorum import (
    Vote,
    VoteTally,
    byzantine_quorum,
    max_byzantine_tolerated,
)
from repro.crypto.hashing import sha256
from repro.errors import ConsensusError
from tests.conftest import TEST_LIMITS


class TestQuorumMath:
    @pytest.mark.parametrize(
        "m,quorum", [(1, 1), (3, 3), (4, 3), (7, 5), (10, 7), (100, 67)]
    )
    def test_quorum_values(self, m, quorum):
        assert byzantine_quorum(m) == quorum

    def test_soundness_relation(self):
        """Two quorums intersect in >f members for every cluster size."""
        for m in range(1, 60):
            quorum = byzantine_quorum(m)
            f = max_byzantine_tolerated(m)
            assert 2 * quorum - m > f

    def test_invalid_size(self):
        with pytest.raises(ConsensusError):
            byzantine_quorum(0)
        with pytest.raises(ConsensusError):
            max_byzantine_tolerated(0)


class TestVoteTally:
    def test_accept_quorum(self):
        tally = VoteTally(cluster_size=4)
        for member in range(3):
            tally.record(member, Vote.ACCEPT)
        assert tally.accepted

    def test_not_decided_below_quorum(self):
        tally = VoteTally(cluster_size=4)
        tally.record(0, Vote.ACCEPT)
        assert not tally.accepted and not tally.rejected

    def test_rejection_when_quorum_impossible(self):
        tally = VoteTally(cluster_size=4)  # quorum 3
        tally.record(0, Vote.REJECT)
        tally.record(1, Vote.REJECT)
        assert tally.rejected

    def test_duplicate_votes_ignored(self):
        tally = VoteTally(cluster_size=4)
        tally.record(0, Vote.ACCEPT)
        tally.record(0, Vote.ACCEPT)
        assert tally.accepts == 1

    def test_equivocation_discards_member(self):
        tally = VoteTally(cluster_size=4)
        tally.record(0, Vote.ACCEPT)
        tally.record(0, Vote.REJECT)
        assert tally.accepts == 0
        assert tally.rejects == 0
        assert 0 in tally.equivocators
        tally.record(0, Vote.ACCEPT)  # stays discarded
        assert tally.accepts == 0

    def test_equivocators_count_against_acceptance(self):
        tally = VoteTally(cluster_size=3)  # quorum 3
        tally.record(0, Vote.ACCEPT)
        tally.record(0, Vote.REJECT)
        assert tally.rejected  # only 2 honest voters remain < quorum


def make_round(m: int = 4, holders=(0,), member: int = 1):
    return VerificationRound(
        block_hash=sha256(b"block"),
        members=tuple(range(m)),
        holders=tuple(holders),
        member_id=member,
    )


class TestVerificationRound:
    def test_prepare_majority_triggers_commit(self):
        round_ = make_round(m=4, holders=(0, 1, 2), member=3)
        assert not round_.on_prepare(0, Vote.ACCEPT)
        assert round_.on_prepare(1, Vote.ACCEPT)  # 2 of 3 = majority
        assert round_.my_commit_vote is Vote.ACCEPT
        assert round_.phase is RoundPhase.AWAITING_COMMITS

    def test_reject_majority_commits_reject(self):
        round_ = make_round(m=4, holders=(0, 1, 2), member=3)
        round_.on_prepare(0, Vote.REJECT)
        assert round_.on_prepare(1, Vote.REJECT)
        assert round_.my_commit_vote is Vote.REJECT

    def test_single_holder_prepare_suffices(self):
        round_ = make_round(m=4, holders=(0,), member=1)
        assert round_.on_prepare(0, Vote.ACCEPT)

    def test_non_holder_prepare_ignored(self):
        round_ = make_round(m=4, holders=(0,), member=1)
        assert not round_.on_prepare(3, Vote.ACCEPT)

    def test_commit_quorum_accepts(self):
        round_ = make_round(m=4, holders=(0,), member=1)
        round_.on_prepare(0, Vote.ACCEPT)
        assert not round_.on_commit(0, Vote.ACCEPT, now=1.0)
        assert not round_.on_commit(1, Vote.ACCEPT, now=2.0)
        assert round_.on_commit(2, Vote.ACCEPT, now=3.0)
        assert round_.accepted
        assert round_.decided_at == 3.0

    def test_commit_quorum_rejects(self):
        round_ = make_round(m=4, holders=(0,), member=1)
        round_.on_commit(0, Vote.REJECT)
        assert round_.on_commit(1, Vote.REJECT)
        assert round_.phase is RoundPhase.REJECTED

    def test_events_after_decision_ignored(self):
        round_ = make_round(m=3, holders=(0,), member=1)
        for member in range(3):
            round_.on_commit(member, Vote.ACCEPT)
        assert round_.decided
        assert not round_.on_commit(0, Vote.ACCEPT)
        assert not round_.on_prepare(0, Vote.ACCEPT)

    def test_stranger_commit_ignored(self):
        round_ = make_round(m=3, holders=(0,), member=1)
        assert not round_.on_commit(99, Vote.ACCEPT)
        assert round_.commit_tally.accepts == 0

    def test_commit_vote_before_quorum_raises(self):
        round_ = make_round()
        with pytest.raises(ConsensusError):
            _ = round_.my_commit_vote

    def test_owner_must_be_member(self):
        with pytest.raises(ConsensusError):
            make_round(m=3, holders=(0,), member=9)

    def test_holders_must_be_members(self):
        with pytest.raises(ConsensusError):
            VerificationRound(
                block_hash=sha256(b"b"),
                members=(0, 1),
                holders=(5,),
                member_id=0,
            )

    def test_needs_a_holder(self):
        with pytest.raises(ConsensusError):
            VerificationRound(
                block_hash=sha256(b"b"),
                members=(0, 1),
                holders=(),
                member_id=0,
            )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 20), st.data())
    def test_quorum_of_accepts_always_decides(self, m, data):
        holders = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(0, m - 1), min_size=1, max_size=min(m, 3)
                    )
                )
            )
        )
        round_ = make_round(m=m, holders=holders, member=0)
        for holder in holders:
            round_.on_prepare(holder, Vote.ACCEPT)
        for member in range(byzantine_quorum(m)):
            round_.on_commit(member, Vote.ACCEPT)
        assert round_.accepted


class TestProposerSchedule:
    def test_deterministic(self):
        a = ProposerSchedule(range(10), seed=1)
        b = ProposerSchedule(range(10), seed=1)
        assert [a.proposer_at(h) for h in range(20)] == [
            b.proposer_at(h) for h in range(20)
        ]

    def test_spread_over_nodes(self):
        schedule = ProposerSchedule(range(10), seed=0)
        chosen = {schedule.proposer_at(h) for h in range(200)}
        assert len(chosen) == 10

    def test_remove_and_add(self):
        schedule = ProposerSchedule([0, 1, 2], seed=0)

        def rotation() -> list[int]:
            return [schedule.proposer_at(h) for h in range(200)]

        schedule.remove(1)
        assert set(rotation()) == {0, 2}
        schedule.add(1)
        assert set(rotation()) == {0, 1, 2}
        schedule.add(1)  # idempotent: the rotation of a fresh schedule
        fresh = ProposerSchedule([0, 1, 2], seed=0)
        assert rotation() == [fresh.proposer_at(h) for h in range(200)]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConsensusError):
            ProposerSchedule([])

    def test_negative_height_rejected(self):
        with pytest.raises(ConsensusError):
            ProposerSchedule([0]).proposer_at(-1)


class TestBlockProposer:
    def test_coinbase_first_and_reward(self, ledger, alice):
        proposer = BlockProposer(alice.address, limits=TEST_LIMITS)
        block = proposer.propose(
            height=1,
            prev_hash=ledger.tip.block_hash,
            mempool=Mempool(limits=TEST_LIMITS),
            timestamp=5.0,
        )
        assert block.transactions[0].is_coinbase
        assert (
            block.transactions[0].total_output_value
            == TEST_LIMITS.block_reward
        )
        assert block.header.nonce == 1

    def test_extra_transactions_respect_budget(self, ledger, alice):
        from repro.chain.transaction import make_coinbase

        tiny_limits = TEST_LIMITS
        proposer = BlockProposer(alice.address, limits=tiny_limits)
        fillers = [
            make_coinbase(0, alice.address, height=1, extra=bytes([i]) * 100)
            for i in range(10)
        ]
        block = proposer.propose(
            height=1,
            prev_hash=ledger.tip.block_hash,
            mempool=Mempool(limits=tiny_limits),
            timestamp=5.0,
            extra_transactions=fillers,
        )
        assert block.body_size_bytes <= tiny_limits.max_block_body_bytes
