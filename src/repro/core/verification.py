"""Collaborative-verification wire objects and cost accounting.

The intra-cluster protocol (described in :mod:`repro.consensus.pbft`)
exchanges three payload families; this module defines them with realistic
wire sizes and signing, plus the CPU-cost bookkeeping that makes
"holders validate fully, everyone else checks headers" measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.chain.block import Block
from repro.chain.validation import (
    estimate_verification_cost,
    header_check_cost,
)
from repro.consensus.quorum import Vote
from repro.crypto.hashing import Hash32
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import SIGNATURE_SIZE, sign, verify
from repro.errors import ConsensusError


@dataclass(frozen=True)
class PrepareAttestation:
    """A holder's signed verdict after fully validating a body."""

    # Written out, not dataclass(slots=True): requires-python is >=3.9.
    __slots__ = ("block_hash", "holder", "vote", "signature")

    block_hash: Hash32
    holder: int
    vote: Vote
    signature: bytes

    #: hash + node id + vote byte + signature
    WIRE_BYTES = 32 + 8 + 1 + SIGNATURE_SIZE

    @classmethod
    def create(
        cls, keypair: KeyPair, block_hash: Hash32, holder: int, vote: Vote
    ) -> "PrepareAttestation":
        """Sign a new statement with ``keypair``."""
        message = _attest_message(b"prepare", block_hash, holder, vote)
        return cls(
            block_hash=block_hash,
            holder=holder,
            vote=vote,
            signature=sign(keypair, message),
        )

    def check(self, public_key: bytes) -> bool:
        """Verify the attestation signature."""
        message = _attest_message(
            b"prepare", self.block_hash, self.holder, self.vote
        )
        return verify(public_key, message, self.signature)


@dataclass(frozen=True)
class CommitVote:
    """A member's signed commit after seeing a prepare quorum."""

    __slots__ = ("block_hash", "member", "vote", "signature")

    block_hash: Hash32
    member: int
    vote: Vote
    signature: bytes

    WIRE_BYTES = 32 + 8 + 1 + SIGNATURE_SIZE

    @classmethod
    def create(
        cls, keypair: KeyPair, block_hash: Hash32, member: int, vote: Vote
    ) -> "CommitVote":
        """Sign a new statement with ``keypair``."""
        message = _attest_message(b"commit", block_hash, member, vote)
        return cls(
            block_hash=block_hash,
            member=member,
            vote=vote,
            signature=sign(keypair, message),
        )

    def check(self, public_key: bytes) -> bool:
        """Verify the signature against a public key."""
        message = _attest_message(
            b"commit", self.block_hash, self.member, self.vote
        )
        return verify(public_key, message, self.signature)


@dataclass(frozen=True)
class QuorumCertificate:
    """An aggregator's proof that a commit quorum exists.

    Carries the quorum's commit votes verbatim; receivers may spot-check
    signatures.  Wire size grows linearly in the quorum size, which is what
    makes aggregation cheaper than all-to-all only for the *message count*,
    not bytes-per-message — the E6 bench shows the trade-off.
    """

    __slots__ = ("block_hash", "vote", "commits")

    block_hash: Hash32
    vote: Vote
    commits: tuple[CommitVote, ...]

    def __post_init__(self) -> None:
        for commit in self.commits:
            if commit.block_hash != self.block_hash:
                raise ConsensusError("certificate mixes blocks")
            if commit.vote != self.vote:
                raise ConsensusError("certificate mixes verdicts")

    @property
    def wire_bytes(self) -> int:
        """Wire size of the certificate."""
        return 32 + 1 + len(self.commits) * CommitVote.WIRE_BYTES

    def check(self, public_keys: dict[int, bytes], quorum: int) -> bool:
        """Validate the certificate against known member keys."""
        if len({c.member for c in self.commits}) < quorum:
            return False
        for commit in self.commits:
            key = public_keys.get(commit.member)
            if key is None or not commit.check(key):
                return False
        return True


# Sized to the working set: a statement is rebuilt only while its block's
# round runs (one per PREPARE and COMMIT: 320 a block at 256 nodes, 1,920
# at 1,536), so a larger cache only retains entries never asked for again.
@lru_cache(maxsize=4096)
def _attest_message(
    domain: bytes, block_hash: Hash32, node: int, vote: Vote
) -> bytes:
    # Memoized: signing and every verifying member rebuild the identical
    # statement bytes for the same (domain, block, node, vote).
    return (
        b"repro/attest/" + domain + b"/"
        + block_hash
        + node.to_bytes(8, "big")
        + vote.value.encode("ascii")
    )


@dataclass
class VerificationCosts:
    """Accumulated simulated CPU seconds, split by depth of check."""

    full_validations: int = 0
    header_checks: int = 0
    cpu_seconds: float = 0.0

    def charge_full_validation(self, block: Block) -> float:
        """Account one full-body validation; returns its simulated cost."""
        cost = estimate_verification_cost(block)
        self.full_validations += 1
        self.cpu_seconds += cost
        return cost

    def charge_header_check(self) -> float:
        """Account one header-only check; returns its simulated cost."""
        cost = header_check_cost()
        self.header_checks += 1
        self.cpu_seconds += cost
        return cost
