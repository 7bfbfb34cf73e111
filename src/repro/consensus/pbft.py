"""Intra-cluster collaborative verification state machine.

The PBFT-flavoured protocol ICIStrategy runs inside each cluster when a new
block arrives:

1. **Prepare** — the block's assigned *holders* fully validate the body
   (signatures, Merkle commitment, stateful checks) and broadcast a signed
   PREPARE attestation (accept/reject) to all cluster members.
2. **Commit** — every member checks the header chain linkage plus the
   holders' attestations; once a majority of holders attest accept, the
   member broadcasts COMMIT.
3. **Decide** — a member finalizes the block when it has collected a
   Byzantine quorum (``⌊2m/3⌋+1``) of COMMITs.

The state machine here is *pure*: callers feed events in and get decisions
out; the signed wire objects live in :mod:`repro.consensus.votes` and all
networking in :mod:`repro.protocols.intracluster`.  That split keeps the
protocol unit-testable without a simulator.
"""

from __future__ import annotations

from enum import Enum

from repro.consensus.quorum import Vote, VoteTally
from repro.errors import ConsensusError


class RoundPhase(Enum):
    """Lifecycle of one block's verification inside a cluster."""

    AWAITING_PREPARES = "awaiting_prepares"
    AWAITING_COMMITS = "awaiting_commits"
    ACCEPTED = "accepted"
    REJECTED = "rejected"


class VerificationRound:
    """Per-member view of one block's intra-cluster verification.

    Each cluster member runs its own round instance; instances exchange
    PREPARE/COMMIT events through the messaging layer.  A deployment
    keeps one per (member, block), so the state is slots only: prepare
    verdicts are two bitmasks over ``holders`` positions, and the commit
    tally is built by the first COMMIT (with an aggregator most members
    never receive one).

    Attributes:
        block_hash: the block under verification.
        members: cluster membership (including this member).
        holders: the placement-assigned body holders.
        member_id: the member whose view this is.
    """

    __slots__ = (
        "block_hash", "members", "holders", "member_id", "phase",
        "sent_commit", "decided_at", "_prepare_accepts", "_prepare_rejects",
        "_pending_commit", "_commit_tally",
    )  # fmt: skip

    def __init__(
        self,
        block_hash: bytes,
        members: tuple[int, ...],
        holders: tuple[int, ...],
        member_id: int,
    ) -> None:
        if member_id not in members:
            raise ConsensusError("round owner must be a cluster member")
        if not set(holders) <= set(members):
            raise ConsensusError("holders must be cluster members")
        if not holders:
            raise ConsensusError("a block must have at least one holder")
        self.block_hash = block_hash
        self.members = members
        self.holders = holders
        self.member_id = member_id
        self.phase = RoundPhase.AWAITING_PREPARES
        self.sent_commit = False
        self.decided_at: float | None = None
        self._prepare_accepts = 0
        self._prepare_rejects = 0
        self._pending_commit: Vote | None = None
        self._commit_tally: VoteTally | None = None

    # ------------------------------------------------------------ thresholds
    @property
    def prepare_quorum(self) -> int:
        """Holder attestations needed before members commit: majority."""
        return len(self.holders) // 2 + 1

    # ---------------------------------------------------------------- state
    @property
    def prepare_votes(self) -> dict[int, Vote]:
        """Read-only view: the first verdict recorded per holder."""
        votes: dict[int, Vote] = {}
        for position, holder in enumerate(self.holders):
            if self._prepare_accepts >> position & 1:
                votes[holder] = Vote.ACCEPT
            elif self._prepare_rejects >> position & 1:
                votes[holder] = Vote.REJECT
        return votes

    @property
    def commit_tally(self) -> VoteTally:
        """The COMMIT tally, created when first asked for."""
        tally = self._commit_tally
        if tally is None:
            tally = self._commit_tally = VoteTally(len(self.members))
        return tally

    # --------------------------------------------------------------- events
    def on_prepare(self, holder: int, vote: Vote) -> bool:
        """Record a holder's PREPARE; returns ``True`` when this member
        should now broadcast its COMMIT (transition to the commit phase).

        Non-holders' prepares are ignored; duplicate prepares keep the
        first verdict.
        """
        if self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED):
            return False
        try:
            bit = 1 << self.holders.index(holder)
        except ValueError:
            return False
        if not (self._prepare_accepts | self._prepare_rejects) & bit:
            if vote is Vote.ACCEPT:
                self._prepare_accepts |= bit
            else:
                self._prepare_rejects |= bit
        return self._maybe_enter_commit()

    def _maybe_enter_commit(self) -> bool:
        if self.phase is not RoundPhase.AWAITING_PREPARES or self.sent_commit:
            return False
        if bin(self._prepare_accepts).count("1") >= self.prepare_quorum:
            self._pending_commit = Vote.ACCEPT
        elif bin(self._prepare_rejects).count("1") >= self.prepare_quorum:
            self._pending_commit = Vote.REJECT
        else:
            return False
        self.phase = RoundPhase.AWAITING_COMMITS
        self.sent_commit = True
        return True

    @property
    def my_commit_vote(self) -> Vote:
        """The COMMIT this member should broadcast (valid after the prepare
        quorum fired).

        Raises:
            ConsensusError: when queried before the commit phase.
        """
        vote = self._pending_commit
        if vote is None:
            raise ConsensusError("commit vote not yet determined")
        return vote

    def on_commit(self, member: int, vote: Vote, now: float = 0.0) -> bool:
        """Record a member's COMMIT; returns ``True`` at the decision edge."""
        if self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED):
            return False
        if member not in self.members:
            return False
        tally = self.commit_tally
        tally.record(member, vote)
        if tally.accepted:
            self.phase = RoundPhase.ACCEPTED
            self.decided_at = now
            return True
        if tally.rejected:
            self.phase = RoundPhase.REJECTED
            self.decided_at = now
            return True
        return False

    # -------------------------------------------------------------- queries
    @property
    def decided(self) -> bool:
        """Has this round reached a verdict?"""
        return self.phase in (RoundPhase.ACCEPTED, RoundPhase.REJECTED)

    @property
    def accepted(self) -> bool:
        """Did this round accept the block?"""
        return self.phase is RoundPhase.ACCEPTED
