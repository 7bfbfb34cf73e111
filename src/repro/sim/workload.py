"""Synthetic transaction and read workloads.

Generates realistic UTXO traffic: a population of wallets pays each other
random amounts, transaction sizes are padded to a configurable target
(Bitcoin's mean ≈ 500 bytes), and every transaction is properly signed so
full validation paths run for real.

The generator only ever spends *confirmed* outputs (callers feed blocks
back via :meth:`TransactionWorkload.on_block_confirmed`), so the stream it
produces is always valid against the canonical chain.

:class:`ZipfReadWorkload` is the read-side counterpart: a seeded stream
of block retrievals whose popularity follows a Zipf law over *recency
rank* — the newest block is rank 1 and hottest, deep history is the
long cold tail.  That skew is what makes access heat non-uniform, which
is the whole point of adaptive replication (:mod:`repro.storage.heat`):
under a flat read distribution there is nothing to tier.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from repro.chain.block import Block
from repro.chain.transaction import (
    OutPoint,
    Transaction,
    make_signed_transfer,
)
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload shape knobs.

    Attributes:
        n_wallets: distinct key pairs paying each other.
        target_tx_bytes: transactions are padded up to roughly this size
            (0 disables padding).
        fee_per_transfer: base units each transfer leaves unclaimed for
            the block proposer (0 = feeless).
        seed: RNG seed; equal seeds yield identical streams.
    """

    n_wallets: int = 20
    target_tx_bytes: int = 500
    fee_per_transfer: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_wallets < 2:
            raise ConfigurationError("need at least two wallets")
        if self.target_tx_bytes < 0:
            raise ConfigurationError("target_tx_bytes must be >= 0")
        if self.fee_per_transfer < 0:
            raise ConfigurationError("fee_per_transfer must be >= 0")


class TransactionWorkload:
    """Stateful generator of signed wallet-to-wallet transfers.

    The wallet population is seeded from the deterministic key ring, so
    ``KeyPair.from_seed(0)`` — the default genesis faucet — is wallet #0:
    constructing the workload against a default-genesis deployment "just
    works".
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self._rng = random.Random(self.config.seed)
        self.wallets: list[KeyPair] = [
            KeyPair.from_seed(index) for index in range(self.config.n_wallets)
        ]
        self._spendable: dict[bytes, list[tuple[OutPoint, int]]] = {
            wallet.address: [] for wallet in self.wallets
        }
        self._pending_spends: set[OutPoint] = set()

    # ------------------------------------------------------------- funding
    def on_block_confirmed(self, block: Block) -> None:
        """Credit outputs of a confirmed block to the owning wallets."""
        known = {wallet.address for wallet in self.wallets}
        for tx in block.transactions:
            for outpoint in tx.outpoints_spent():
                self._pending_spends.discard(outpoint)
                for pool in self._spendable.values():
                    pool[:] = [
                        pair for pair in pool if pair[0] != outpoint
                    ]
            for index, output in enumerate(tx.outputs):
                if output.address in known:
                    self._spendable[output.address].append(
                        (OutPoint(txid=tx.txid, index=index), output.value)
                    )

    def spendable_value(self, wallet: KeyPair) -> int:
        """Confirmed, not-yet-committed value a wallet can spend now."""
        return sum(
            value
            for outpoint, value in self._spendable[wallet.address]
            if outpoint not in self._pending_spends
        )

    # ---------------------------------------------------------- generation
    def next_transfer(self) -> Transaction | None:
        """One random wallet-to-wallet payment, or ``None`` if nobody can pay.

        The chosen sender spends its confirmed outputs; the transfer is
        marked pending so the same outputs are not double-offered before
        confirmation.
        """
        candidates = [
            wallet
            for wallet in self.wallets
            if self.spendable_value(wallet) > 1
        ]
        if not candidates:
            return None
        sender = self._rng.choice(candidates)
        recipient = self._rng.choice(
            [w for w in self.wallets if w is not sender]
        )
        available = [
            pair
            for pair in self._spendable[sender.address]
            if pair[0] not in self._pending_spends
        ]
        total = sum(value for _, value in available)
        fee = self.config.fee_per_transfer
        if total <= fee + 1:
            return None
        amount = self._rng.randint(1, max((total - fee) // 2, 1))
        payload = self._padding_for(amount)
        tx = make_signed_transfer(
            sender=sender,
            spendable=available,
            recipient_address=recipient.address,
            amount=amount,
            fee=fee,
            payload=payload,
        )
        for outpoint in tx.outpoints_spent():
            self._pending_spends.add(outpoint)
        return tx

    def reset_from_chain(self, blocks) -> None:
        """Rebuild wallet state from scratch off a (new) active chain.

        Called after a chain reorganization: confirmations on the stale
        branch no longer exist, so spendable outputs are recomputed by
        replaying the surviving chain in order.
        """
        for pool in self._spendable.values():
            pool.clear()
        self._pending_spends.clear()
        for block in blocks:
            self.on_block_confirmed(block)

    def release_pending(self, txs: list[Transaction]) -> None:
        """Un-reserve transfers that did not make it into a block.

        Relay-driven runs submit transfers to mempools; whatever the
        proposer leaves out must become spendable again.
        """
        for tx in txs:
            for outpoint in tx.outpoints_spent():
                self._pending_spends.discard(outpoint)

    def batch(self, count: int) -> list[Transaction]:
        """Up to ``count`` transfers (stops early when funds run dry)."""
        transactions: list[Transaction] = []
        for _ in range(count):
            tx = self.next_transfer()
            if tx is None:
                break
            transactions.append(tx)
        return transactions

    def _padding_for(self, amount: int) -> bytes:
        if self.config.target_tx_bytes == 0:
            return b""
        # Base 1-in/2-out transfer is ~250 bytes; pad the rest.
        base_estimate = 250
        pad = max(self.config.target_tx_bytes - base_estimate, 0)
        return bytes([amount % 251]) * pad


#: The Zipf ``s`` every in-repo read stream uses (endurance storm reads,
#: the E18/E19 comparisons).
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class ReadWorkloadConfig:
    """Shape of a Zipf-skewed block-read stream.

    Attributes:
        seed: RNG seed; equal seeds yield identical read sequences.
        exponent: the Zipf ``s``: P(rank k) ∝ 1/k^s.  1.0–1.2 matches
            measured blockchain explorer/API traffic (recent blocks
            dominate, deep history is rarely touched).
    """

    seed: int = 0
    exponent: float = ZIPF_EXPONENT

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError("zipf exponent must be > 0")


class ZipfReadWorkload:
    """Seeded stream of (requester, block hash) reads, Zipf over recency.

    Rank 1 is the **newest** block: popularity tracks recency, so as the
    chain grows the heat moves with the tip and old blocks cool — the
    access pattern adaptive replication is designed to exploit.  All
    draws come from one private ``random.Random(seed)``, so the sequence
    is a pure function of (seed, population sizes at each call).
    """

    def __init__(self, config: ReadWorkloadConfig | None = None) -> None:
        self.config = config or ReadWorkloadConfig()
        self._rng = random.Random(self.config.seed)
        # Cumulative Zipf weights, extended lazily as populations grow;
        # _cumulative[k-1] = sum over ranks 1..k of 1/rank^s.
        self._cumulative: list[float] = []

    def _extend_weights(self, n: int) -> None:
        s = self.config.exponent
        total = self._cumulative[-1] if self._cumulative else 0.0
        for rank in range(len(self._cumulative) + 1, n + 1):
            total += 1.0 / rank**s
            self._cumulative.append(total)

    def next_block(self, block_hashes: Sequence) -> object:
        """Draw one block, Zipf-weighted toward the end of the list."""
        n = len(block_hashes)
        if n == 0:
            raise ConfigurationError("cannot draw reads from zero blocks")
        self._extend_weights(n)
        point = self._rng.random() * self._cumulative[n - 1]
        rank = bisect.bisect_right(self._cumulative, point, 0, n) + 1
        # Rank 1 = newest: index from the end of the (height-ordered) list.
        return block_hashes[n - min(rank, n)]

    def next_read(
        self, block_hashes: Sequence, node_ids: Sequence[int]
    ) -> tuple[int, object]:
        """One (requester, block hash) pair; requesters are uniform."""
        requester = node_ids[self._rng.randrange(len(node_ids))]
        return requester, self.next_block(block_hashes)

    def reads(
        self,
        block_hashes: Sequence,
        node_ids: Sequence[int],
        count: int,
    ) -> list[tuple[int, object]]:
        """``count`` sequential reads against the current population."""
        return [
            self.next_read(block_hashes, node_ids)
            for _ in itertools.repeat(None, count)
        ]
