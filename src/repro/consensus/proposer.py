"""Block proposer scheduling — the PoW/PoS abstraction.

The experiments do not measure mining; they measure what happens to a block
*after* it exists.  So block production is abstracted into a deterministic
proposer schedule: at each height, a pseudo-random (seeded) node wins the
right to seal the next block.  The ``nonce`` field of the header records
the round, standing in for the proof-of-work witness.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.chain.block import Block, build_block
from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction, make_coinbase
from repro.chain.validation import (
    DEFAULT_LIMITS,
    ValidationLimits,
    check_transaction_stateful,
)
from repro.crypto.hashing import Hash32
from repro.errors import ConsensusError, ValidationError


class ProposerSchedule:
    """Deterministic rotation of block proposers.

    The proposer at height ``h`` is chosen by hashing ``(seed, h)`` into
    the eligible node list, mimicking lottery-style leader election without
    simulating work.
    """

    def __init__(self, node_ids: Sequence[int], seed: int = 0) -> None:
        if not node_ids:
            raise ConsensusError("proposer schedule needs at least one node")
        self._node_ids = sorted(node_ids)
        self._seed = seed

    def proposer_at(self, height: int) -> int:
        """The node id entitled to seal the block at ``height``."""
        if height < 0:
            raise ConsensusError("height must be non-negative")
        digest = hashlib.sha256(
            f"proposer/{self._seed}/{height}".encode("ascii")
        ).digest()
        index = int.from_bytes(digest[:8], "big") % len(self._node_ids)
        return self._node_ids[index]

    def remove(self, node_id: int) -> None:
        """Drop a departed node from the rotation."""
        if node_id in self._node_ids:
            self._node_ids.remove(node_id)
        if not self._node_ids:
            raise ConsensusError("proposer schedule emptied")

    def add(self, node_id: int) -> None:
        """Admit a node to the rotation (idempotent)."""
        if node_id not in self._node_ids:
            self._node_ids.append(node_id)
            self._node_ids.sort()


class BlockProposer:
    """Assembles the next block from a mempool for a scheduled proposer."""

    def __init__(
        self,
        miner_address: bytes,
        limits: ValidationLimits = DEFAULT_LIMITS,
    ) -> None:
        self._miner_address = miner_address
        self._limits = limits

    def propose(
        self,
        height: int,
        prev_hash: Hash32,
        mempool: Mempool,
        timestamp: float,
        extra_transactions: Sequence[Transaction] = (),
        utxos=None,
    ) -> Block:
        """Seal the block at ``height`` on top of ``prev_hash``.

        ``extra_transactions`` lets workload drivers inject transactions
        directly (bypassing relay) for storage-focused experiments.
        When ``utxos`` (the parent chain state) is supplied, the coinbase
        additionally claims the included transactions' fees.
        """
        budget = self._limits.max_block_body_bytes
        placeholder = make_coinbase(
            reward=self._limits.block_reward,
            miner_address=self._miner_address,
            height=height,
        )
        budget -= placeholder.size_bytes
        selected: list[Transaction] = []
        used = 0
        for tx in extra_transactions:
            if used + tx.size_bytes > budget:
                break
            selected.append(tx)
            used += tx.size_bytes
        selected.extend(mempool.select_for_block(budget - used))

        fees = 0
        if utxos is not None:
            for tx in selected:
                try:
                    fees += check_transaction_stateful(tx, utxos)
                except ValidationError:
                    fees += 0  # intra-block spend; fee counted as 0
        coinbase = make_coinbase(
            reward=self._limits.block_reward + fees,
            miner_address=self._miner_address,
            height=height,
        )
        return build_block(
            height=height,
            prev_hash=prev_hash,
            transactions=[coinbase, *selected],
            timestamp=timestamp,
            nonce=height,
        )
