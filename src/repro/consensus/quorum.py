"""Quorum arithmetic and vote tracking for intra-cluster verification.

ICIStrategy accepts a block inside a cluster once a Byzantine quorum of
members has attested to it.  This module holds the pure logic — quorum
thresholds, vote tallies, equivocation detection — separate from the
message-driven state machine in :mod:`repro.consensus.pbft`.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import ConsensusError


def byzantine_quorum(cluster_size: int) -> int:
    """Votes needed to tolerate ``f = ⌊(m-1)/3⌋`` Byzantine members.

    Classic BFT threshold: ``2f + 1`` out of ``m = 3f + 1`` (rounded for
    arbitrary m as ``⌊2m/3⌋ + 1``).
    """
    if cluster_size < 1:
        raise ConsensusError("cluster size must be positive")
    return (2 * cluster_size) // 3 + 1


def max_byzantine_tolerated(cluster_size: int) -> int:
    """The ``f`` such that quorum certificates stay sound: ``⌊(m-1)/3⌋``."""
    if cluster_size < 1:
        raise ConsensusError("cluster size must be positive")
    return (cluster_size - 1) // 3


class Vote(Enum):
    """A member's verdict on a block."""

    ACCEPT = "accept"
    REJECT = "reject"


class VoteTally:
    """Collects one cluster's votes on one block.

    Equivocation (a member voting both ways) marks the member faulty and
    discards both votes — the standard defensive treatment.
    """

    __slots__ = ("cluster_size", "votes", "equivocators")

    def __init__(self, cluster_size: int) -> None:
        if cluster_size < 1:
            raise ConsensusError("cluster size must be positive")
        self.cluster_size = cluster_size
        self.votes: dict[int, Vote] = {}
        self.equivocators: set[int] = set()

    @property
    def quorum(self) -> int:
        """Votes required to accept: ``⌊2m/3⌋ + 1``."""
        return byzantine_quorum(self.cluster_size)

    def record(self, member: int, vote: Vote) -> None:
        """Record a vote; conflicting votes flag the member."""
        if member in self.equivocators:
            return
        previous = self.votes.get(member)
        if previous is not None and previous != vote:
            del self.votes[member]
            self.equivocators.add(member)
            return
        self.votes[member] = vote

    @property
    def accepts(self) -> int:
        """Accept votes recorded so far."""
        return sum(1 for v in self.votes.values() if v is Vote.ACCEPT)

    @property
    def rejects(self) -> int:
        """Reject votes recorded so far."""
        return sum(1 for v in self.votes.values() if v is Vote.REJECT)

    @property
    def accepted(self) -> bool:
        """True once an accept quorum certificate exists."""
        return self.accepts >= self.quorum

    @property
    def rejected(self) -> bool:
        """True once acceptance is impossible (too many rejects)."""
        possible = self.cluster_size - self.rejects - len(self.equivocators)
        return possible < self.quorum
