"""The UTXO set: unspent transaction outputs with apply/undo support.

The set is the ledger state against which stateful validation runs.  Undo
records make chain reorganizations possible without replaying from genesis.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.chain.block import Block
from repro.chain.transaction import OutPoint, Transaction, TxOutput
from repro.crypto.keys import ADDRESS_SIZE
from repro.errors import ValidationError


@dataclass(frozen=True)
class UtxoEntry:
    """An unspent output plus the context it was created in."""

    output: TxOutput
    height: int
    is_coinbase: bool


@dataclass
class UndoRecord:
    """Everything needed to revert one block's effect on the UTXO set."""

    block_hash: bytes
    created: list[OutPoint] = field(default_factory=list)
    spent: list[tuple[OutPoint, UtxoEntry]] = field(default_factory=list)


class UtxoSet:
    """In-memory unspent-output set with block apply/undo.

    The set is deliberately simple — a dict keyed by outpoint — because the
    experiments stress storage layout, not state-database engineering.
    """

    def __init__(self) -> None:
        self._entries: dict[OutPoint, UtxoEntry] = {}
        self._total_value = 0

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._entries

    def get(self, outpoint: OutPoint) -> UtxoEntry | None:
        """The entry for ``outpoint``, or ``None`` when spent/unknown."""
        return self._entries.get(outpoint)

    @property
    def total_value(self) -> int:
        """Sum of all unspent values (conservation-law invariant hook)."""
        return self._total_value

    def balance_of(self, address: bytes) -> int:
        """Total unspent value locked to ``address`` (linear scan)."""
        return sum(
            entry.output.value
            for entry in self._entries.values()
            if entry.output.address == address
        )

    def outpoints_of(self, address: bytes) -> list[tuple[OutPoint, int]]:
        """Spendable ``(outpoint, value)`` pairs for ``address``.

        Ordering is deterministic (sorted by txid then index) so workload
        generation is reproducible.
        """
        owned = [
            (outpoint, entry.output.value)
            for outpoint, entry in self._entries.items()
            if entry.output.address == address
        ]
        owned.sort(key=lambda pair: (pair[0].txid, pair[0].index))
        return owned

    # ------------------------------------------------------------- mutation
    def apply_transaction(
        self, tx: Transaction, height: int, undo: UndoRecord | None = None
    ) -> None:
        """Spend ``tx``'s inputs and create its outputs.

        Raises:
            ValidationError: when an input is missing (double spend or
                unknown outpoint).
        """
        for outpoint in tx.outpoints_spent():
            entry = self._entries.pop(outpoint, None)
            if entry is None:
                raise ValidationError(
                    f"input spends unknown or spent outpoint "
                    f"{outpoint.txid.hex()[:12]}…:{outpoint.index}"
                )
            self._total_value -= entry.output.value
            if undo is not None:
                undo.spent.append((outpoint, entry))
        for index, output in enumerate(tx.outputs):
            outpoint = OutPoint(txid=tx.txid, index=index)
            if outpoint in self._entries:
                raise ValidationError(
                    f"duplicate output creation {outpoint.txid.hex()[:12]}…"
                )
            self._entries[outpoint] = UtxoEntry(
                output=output, height=height, is_coinbase=tx.is_coinbase
            )
            self._total_value += output.value
            if undo is not None:
                undo.created.append(outpoint)

    def apply_block(self, block: Block) -> UndoRecord:
        """Apply every transaction of ``block``; returns its undo record."""
        undo = UndoRecord(block_hash=block.block_hash)
        try:
            for tx in block.transactions:
                self.apply_transaction(tx, block.height, undo)
        except ValidationError:
            self.undo_record(undo)
            raise
        return undo

    def undo_record(self, undo: UndoRecord) -> None:
        """Revert a (possibly partial) undo record, newest effect first."""
        for outpoint in reversed(undo.created):
            entry = self._entries.pop(outpoint, None)
            if entry is not None:
                self._total_value -= entry.output.value
        for outpoint, entry in reversed(undo.spent):
            self._entries[outpoint] = entry
            self._total_value += entry.output.value
        undo.created.clear()
        undo.spent.clear()

    # ---------------------------------------------------------- snapshots
    def serialize_snapshot(self) -> bytes:
        """Deterministic binary snapshot of the whole unspent set.

        Entries are sorted by outpoint so equal sets produce identical
        bytes; the wire size is what a fast-syncing node actually
        downloads instead of replaying block bodies.
        """
        entries = sorted(
            self._entries.items(),
            key=lambda pair: (pair[0].txid, pair[0].index),
        )
        parts = [struct.pack(">I", len(entries))]
        for outpoint, entry in entries:
            parts.append(outpoint.serialize())
            parts.append(entry.output.serialize())
            parts.append(struct.pack(">I", entry.height))
            parts.append(b"\x01" if entry.is_coinbase else b"\x00")
        return b"".join(parts)

    @classmethod
    def deserialize_snapshot(cls, raw: bytes) -> "UtxoSet":
        """Rebuild a set from :meth:`serialize_snapshot` bytes.

        Raises:
            ValidationError: on truncated or malformed input.
        """
        offset = 0

        def take(count: int) -> bytes:
            """Consume ``count`` bytes, erroring on truncation."""
            nonlocal offset
            if offset + count > len(raw):
                raise ValidationError("truncated UTXO snapshot")
            piece = raw[offset : offset + count]
            offset += count
            return piece

        (count,) = struct.unpack(">I", take(4))
        snapshot = cls()
        for _ in range(count):
            outpoint = OutPoint.deserialize(take(36))
            (value,) = struct.unpack(">Q", take(8))
            address = take(ADDRESS_SIZE)
            (height,) = struct.unpack(">I", take(4))
            is_coinbase = take(1) == b"\x01"
            snapshot._entries[outpoint] = UtxoEntry(
                output=TxOutput(value=value, address=address),
                height=height,
                is_coinbase=is_coinbase,
            )
            snapshot._total_value += value
        if offset != len(raw):
            raise ValidationError("trailing bytes after UTXO snapshot")
        return snapshot
