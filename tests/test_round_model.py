"""Model test: the packed ``VerificationRound`` against its predecessor.

``ModelRound`` is the dict-and-eager-tally round this class replaced, kept
verbatim as the oracle.  Hypothesis drives both with the same sequence of
``on_prepare`` / ``on_commit`` calls — duplicates, non-holders,
non-members, flipped second verdicts, equivocating commits, calls after
the decision — and every answer and every readable field must agree
after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.pbft import RoundPhase, VerificationRound
from repro.consensus.quorum import Vote, VoteTally, byzantine_quorum
from repro.errors import ConsensusError

BLOCK = b"\x07" * 32


@dataclass
class ModelRound:
    """The parent commit's round: a dict of prepares, a tally from birth."""

    block_hash: bytes
    members: tuple[int, ...]
    holders: tuple[int, ...]
    member_id: int
    phase: RoundPhase = RoundPhase.AWAITING_PREPARES
    prepare_votes: dict[int, Vote] = field(default_factory=dict)
    commit_tally: VoteTally = field(init=False)
    sent_commit: bool = False
    decided_at: float | None = None

    def __post_init__(self) -> None:
        if self.member_id not in self.members:
            raise ConsensusError("round owner must be a cluster member")
        if not set(self.holders) <= set(self.members):
            raise ConsensusError("holders must be cluster members")
        if not self.holders:
            raise ConsensusError("a block must have at least one holder")
        self.commit_tally = VoteTally(cluster_size=len(self.members))

    @property
    def prepare_quorum(self) -> int:
        return len(self.holders) // 2 + 1

    @property
    def commit_quorum(self) -> int:
        return byzantine_quorum(len(self.members))

    def on_prepare(self, holder: int, vote: Vote) -> bool:
        if self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED):
            return False
        if holder not in self.holders:
            return False
        self.prepare_votes.setdefault(holder, vote)
        return self._maybe_enter_commit()

    def _maybe_enter_commit(self) -> bool:
        if self.phase is not RoundPhase.AWAITING_PREPARES or self.sent_commit:
            return False
        accepts = sum(
            1 for v in self.prepare_votes.values() if v is Vote.ACCEPT
        )
        rejects = sum(
            1 for v in self.prepare_votes.values() if v is Vote.REJECT
        )
        if accepts >= self.prepare_quorum:
            self.phase = RoundPhase.AWAITING_COMMITS
            self.sent_commit = True
            self._pending_commit = Vote.ACCEPT
            return True
        if rejects >= self.prepare_quorum:
            self.phase = RoundPhase.AWAITING_COMMITS
            self.sent_commit = True
            self._pending_commit = Vote.REJECT
            return True
        return False

    @property
    def my_commit_vote(self) -> Vote:
        vote = getattr(self, "_pending_commit", None)
        if vote is None:
            raise ConsensusError("commit vote not yet determined")
        return vote

    def on_commit(self, member: int, vote: Vote, now: float = 0.0) -> bool:
        if self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED):
            return False
        if member not in self.members:
            return False
        self.commit_tally.record(member, vote)
        if self.commit_tally.accepted:
            self.phase = RoundPhase.ACCEPTED
            self.decided_at = now
            return True
        if self.commit_tally.rejected:
            self.phase = RoundPhase.REJECTED
            self.decided_at = now
            return True
        return False

    @property
    def decided(self) -> bool:
        return self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED)

    @property
    def accepted(self) -> bool:
        return self.phase is RoundPhase.ACCEPTED


def build(cls, members, holders, member_id):
    """The round, or the message of the ``ConsensusError`` it raised."""
    try:
        return cls(
            block_hash=BLOCK,
            members=members,
            holders=holders,
            member_id=member_id,
        )
    except ConsensusError as error:
        return str(error)


def observe(round_, peek: bool = True) -> dict:
    """Everything a caller can read off a round.

    ``peek=False`` leaves the packed round's tally unbuilt when no commit
    has built it yet, and reports the empty tally it stands for.
    """
    try:
        commit_vote = round_.my_commit_vote
    except ConsensusError as error:
        commit_vote = str(error)
    if peek or getattr(round_, "_commit_tally", True) is not None:
        tally = round_.commit_tally
    else:
        tally = VoteTally(len(round_.members))
    return {
        "phase": round_.phase,
        "sent_commit": round_.sent_commit,
        "decided": round_.decided,
        "accepted": round_.accepted,
        "decided_at": round_.decided_at,
        "my_commit_vote": commit_vote,
        "prepare_votes": dict(round_.prepare_votes),
        "tally": (
            tally.cluster_size, tally.accepts, tally.rejects,
            set(tally.equivocators), dict(tally.votes),
        ),  # fmt: skip
        "quorums": (round_.prepare_quorum, round_.commit_quorum),
    }


votes = st.sampled_from(list(Vote))
# Ids 0..11 with members drawn from 0..8: strangers and non-holders occur.
node_ids = st.integers(0, 11)
# The last field says whether this step reads ``commit_tally`` (which
# builds it) or leaves the lazy tally alone.
events = st.lists(
    st.tuples(
        st.sampled_from(("prepare", "commit")), node_ids, votes, st.booleans()
    ),
    max_size=40,
)
shapes = st.integers(1, 9).flatmap(
    lambda m: st.tuples(
        st.just(tuple(range(m))),
        # Placement never repeats a holder, but the round must not care.
        st.lists(st.integers(0, m - 1), min_size=1, max_size=4).map(tuple),
        st.integers(0, m - 1),
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shapes, events)
def test_packed_round_answers_as_the_model_does(shape, sequence):
    members, holders, member_id = shape
    packed = build(VerificationRound, members, holders, member_id)
    model = build(ModelRound, members, holders, member_id)
    for step, (kind, node, vote, peek) in enumerate(sequence):
        if kind == "prepare":
            answers = packed.on_prepare(node, vote), model.on_prepare(node, vote)
        else:
            now = float(step)
            answers = (
                packed.on_commit(node, vote, now=now),
                model.on_commit(node, vote, now=now),
            )
        assert answers[0] is answers[1], (step, kind, node, vote)
        assert observe(packed, peek) == observe(model), (step, kind, node, vote)
    assert observe(packed) == observe(model)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.lists(node_ids, max_size=5, unique=True).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    node_ids,
)
def test_constructor_errors_agree(members, holders, member_id):
    packed = build(VerificationRound, members, holders, member_id)
    model = build(ModelRound, members, holders, member_id)
    if isinstance(model, str):
        assert packed == model
    else:
        assert observe(packed) == observe(model)


def test_the_tally_waits_for_the_first_commit():
    round_ = build(VerificationRound, (0, 1, 2, 3), (0,), 1)
    assert round_.on_prepare(0, Vote.ACCEPT)
    assert not round_.on_commit(99, Vote.ACCEPT)  # a stranger builds nothing
    assert round_._commit_tally is None
    assert not round_.on_commit(0, Vote.ACCEPT, now=1.0)
    assert round_.commit_tally is round_._commit_tally is not None
    assert not hasattr(round_, "__dict__")
    assert not hasattr(round_.commit_tally, "__dict__")
    with pytest.raises(AttributeError):
        round_.scratch = 1
