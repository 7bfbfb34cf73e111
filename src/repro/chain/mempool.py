"""Transaction mempool with fee-priority selection.

The mempool accepts stateless-valid transactions, rejects conflicts against
already-pooled transactions, and hands the block proposer a body assembled
greedily by fee rate under the block-size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.chain.transaction import OutPoint, Transaction
from repro.chain.utxo import UtxoSet
from repro.chain.validation import (
    DEFAULT_LIMITS,
    ValidationLimits,
    check_transaction_stateful,
    check_transaction_stateless,
)
from repro.crypto.hashing import Hash32
from repro.errors import UnknownTransactionError, ValidationError


@dataclass(frozen=True)
class MempoolEntry:
    """A pooled transaction plus its computed fee."""

    tx: Transaction
    fee: int

    @property
    def fee_rate(self) -> float:
        """Fee per byte, the proposer's ranking key."""
        return self.fee / max(self.tx.size_bytes, 1)


class Mempool:
    """A per-node pool of pending transactions.

    Invariants maintained:
      * no two pooled transactions spend the same outpoint;
      * every pooled transaction passed stateless checks and spent only
        outputs that existed in the UTXO set at admission time.
    """

    def __init__(
        self,
        limits: ValidationLimits = DEFAULT_LIMITS,
        max_transactions: int = 50_000,
    ) -> None:
        self._limits = limits
        self._max_transactions = max_transactions
        self._entries: dict[Hash32, MempoolEntry] = {}
        self._spent_outpoints: dict[OutPoint, Hash32] = {}

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, txid: Hash32) -> bool:
        return txid in self._entries

    def get(self, txid: Hash32) -> Transaction:
        """The pooled transaction with id ``txid``.

        Raises:
            UnknownTransactionError: when not pooled.
        """
        entry = self._entries.get(txid)
        if entry is None:
            raise UnknownTransactionError(
                f"transaction not in mempool: {txid.hex()[:12]}…"
            )
        return entry.tx

    # ------------------------------------------------------------ admission
    def add(self, tx: Transaction, utxos: UtxoSet) -> bool:
        """Admit a transaction; returns ``False`` for duplicates.

        Raises:
            ValidationError: when the transaction is invalid, conflicts with
                a pooled transaction, or the pool is full.
        """
        if tx.txid in self._entries:
            return False
        if len(self._entries) >= self._max_transactions:
            raise ValidationError("mempool is full")
        if tx.is_coinbase:
            raise ValidationError("coinbase transactions are not relayed")
        check_transaction_stateless(tx, self._limits)
        for outpoint in tx.outpoints_spent():
            conflict = self._spent_outpoints.get(outpoint)
            if conflict is not None:
                raise ValidationError(
                    f"conflicts with pooled tx {conflict.hex()[:12]}…"
                )
        fee = check_transaction_stateful(tx, utxos)
        self._entries[tx.txid] = MempoolEntry(tx=tx, fee=fee)
        for outpoint in tx.outpoints_spent():
            self._spent_outpoints[outpoint] = tx.txid
        return True

    def remove(self, txid: Hash32) -> bool:
        """Drop a transaction (e.g., after block inclusion)."""
        entry = self._entries.pop(txid, None)
        if entry is None:
            return False
        for outpoint in entry.tx.outpoints_spent():
            self._spent_outpoints.pop(outpoint, None)
        return True

    def remove_confirmed(self, txs: Iterable[Transaction]) -> int:
        """Drop every transaction included in a confirmed block.

        Also evicts pooled transactions that conflict with the confirmed
        ones (their inputs were spent by the block).

        Returns:
            Number of entries removed.
        """
        if not self._entries:
            # Only add() and remove() write either dict, so no pooled
            # transaction also means no pooled spend: nothing to evict.
            return 0
        removed = 0
        confirmed_spends: set[OutPoint] = set()
        for tx in txs:
            if self.remove(tx.txid):
                removed += 1
            confirmed_spends.update(tx.outpoints_spent())
        conflicted = [
            txid
            for outpoint, txid in self._spent_outpoints.items()
            if outpoint in confirmed_spends
        ]
        for txid in conflicted:
            if self.remove(txid):
                removed += 1
        return removed

    # ------------------------------------------------------------ selection
    def select_for_block(self, max_body_bytes: int) -> list[Transaction]:
        """Greedy fee-rate-descending selection under a byte budget.

        Intra-pool dependency chains are not pooled (admission requires
        inputs to exist in the UTXO set), so greedy selection is safe.
        """
        ranked = sorted(
            self._entries.values(),
            key=lambda e: (-e.fee_rate, e.tx.txid),
        )
        selected: list[Transaction] = []
        used = 0
        for entry in ranked:
            size = entry.tx.size_bytes
            if used + size > max_body_bytes:
                continue
            selected.append(entry.tx)
            used += size
        return selected
