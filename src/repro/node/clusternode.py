"""Cluster node: the ICIStrategy participant role.

A cluster node keeps **every header** but only the block **bodies the
placement policy assigns to it**.  It tracks, per block, an intra-cluster
verification round, and can serve bodies it holds to cluster-mates.
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader
from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.consensus.pbft import VerificationRound
from repro.errors import BlockNotStoredError
from repro.net.network import Network
from repro.node.base import BaseNode


class ClusterNode(BaseNode):
    """A member of an ICIStrategy cluster.

    Attributes:
        cluster_id: which cluster this node belongs to.

    Ledger *state* (the UTXO set) is validated against the deployment's
    canonical ledger rather than a per-member replica — in a real
    deployment every holder converges to the same state via deltas, so one
    canonical copy is an exact simulator shortcut (see DESIGN.md).
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        cluster_id: int,
        limits: ValidationLimits = DEFAULT_LIMITS,
    ) -> None:
        super().__init__(node_id, network, limits=limits, with_mempool=True)
        self.cluster_id = cluster_id
        self.rounds: dict[bytes, VerificationRound] = {}
        self.finalized: set[bytes] = set()
        self._assigned: set[bytes] = set()

    # ------------------------------------------------------------- storage
    def assign_body(self, block: Block) -> None:
        """Store a body this node is a placement holder for."""
        self._assigned.add(block.block_hash)
        self.store.add_body(block)

    def backfill_headers(self, header: BlockHeader, canonical) -> None:
        """Index the ancestry of ``header`` this node is missing.

        Headers are indexed parent-first, and ``add_body`` refuses a
        body whose parent header is unknown; a node that missed gossip
        (partitioned, crashed, freshly joined) may lack the chain above
        its last-seen height.  ``canonical`` — the ledger's store, the
        same oracle shortcut the reconcile pass uses — supplies the
        ancestry.  Every path that hands this node a body outside
        dissemination calls this first; a no-op when nothing is missing.
        """
        missing: list[BlockHeader] = []
        current = header
        while not self.store.has_header(current.block_hash):
            missing.append(current)
            if current.is_genesis:
                break
            current = canonical.header(current.prev_hash)
        for ancestor in reversed(missing):
            self.store.add_header(ancestor)

    def unassign_body(self, block_hash: bytes) -> int:
        """Release a body placement no longer pins to us (migration).

        Returns the body bytes freed (0 when nothing was held).
        """
        self._assigned.discard(block_hash)
        if not self.store.has_body(block_hash):
            return 0
        freed = self.store.body(block_hash).body_size_bytes
        self.store.drop_body(block_hash)
        return freed

    def is_holder_of(self, block_hash: bytes) -> bool:
        """True when placement assigned this body to us."""
        return block_hash in self._assigned

    def serve_body(self, block_hash: bytes) -> Block:
        """A cluster-mate's body request.

        Raises:
            BlockNotStoredError: when we do not hold the body.
        """
        if not self.store.has_body(block_hash):
            raise BlockNotStoredError(
                f"node {self.node_id} does not hold "
                f"{block_hash.hex()[:12]}…"
            )
        return self.store.body(block_hash)

    def prune_unassigned(self) -> int:
        """Drop any bodies placement does not assign to us (after fetch).

        Returns the number of bodies dropped.  Called after verification
        completes: members may have fetched a body to validate it but only
        holders keep it.
        """
        droppable = [
            block.block_hash
            for block in self.store.iter_bodies()
            if block.block_hash not in self._assigned
        ]
        for block_hash in droppable:
            self.store.drop_body(block_hash)
        return len(droppable)

    # -------------------------------------------------------- verification
    def round_for(
        self,
        header: BlockHeader,
        members: tuple[int, ...],
        holders: tuple[int, ...],
    ) -> VerificationRound:
        """The (possibly new) verification round for a block."""
        block_hash = header.block_hash
        round_ = self.rounds.get(block_hash)
        if round_ is None:
            round_ = VerificationRound(
                block_hash=block_hash,
                members=members,
                holders=holders,
                member_id=self.node_id,
            )
            self.rounds[block_hash] = round_
        return round_

    def finalize(self, block_hash: bytes) -> None:
        """Mark a block as intra-cluster final."""
        self.finalized.add(block_hash)

    def is_finalized(self, block_hash: bytes) -> bool:
        """Has this node finalized the block?"""
        return block_hash in self.finalized

    # ------------------------------------------------------------- queries
    @property
    def assigned_count(self) -> int:
        """How many bodies placement has pinned to this node."""
        return len(self._assigned)
