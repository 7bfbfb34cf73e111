"""Chain explorer: address histories and transaction lookup.

A downstream application of collaborative storage: answering "what
happened to this address?" without every node holding every body.  The
explorer indexes the canonical chain (txid → location, address →
events) and rebuilds itself lazily whenever the tip moves — including
across reorganizations, where stale-branch history must vanish.

The index is built from the deployment's canonical store here; a per-node
deployment would build the same index from bodies fetched through the
intra-cluster retrieval protocol (E13 measures that path's costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chain.transaction import OutPoint, Transaction
from repro.crypto.hashing import Hash32
from repro.errors import UnknownTransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.icistrategy import ICIDeployment


@dataclass(frozen=True)
class AddressEvent:
    """One credit or debit in an address's history."""

    txid: Hash32
    block_hash: Hash32
    height: int
    direction: str  # "in" (received) or "out" (spent)
    amount: int

    def __post_init__(self) -> None:
        assert self.direction in ("in", "out")


@dataclass(frozen=True)
class TxLocation:
    """Where a transaction is committed on the active chain."""

    block_hash: Hash32
    height: int
    index: int  # position within the block


class ChainExplorer:
    """Lazy, reorg-aware index over the canonical chain."""

    def __init__(self, deployment: "ICIDeployment") -> None:
        self._deployment = deployment
        self._indexed_tip: Hash32 | None = None
        self._tx_location: dict[Hash32, TxLocation] = {}
        self._events: dict[bytes, list[AddressEvent]] = {}
        self._output_owner: dict[OutPoint, tuple[bytes, int]] = {}

    # ------------------------------------------------------------- queries
    def history(self, address: bytes) -> list[AddressEvent]:
        """Every credit/debit of ``address``, oldest first."""
        self._ensure_index()
        return list(self._events.get(address, ()))

    def balance(self, address: bytes) -> int:
        """Current spendable balance (from the canonical UTXO set)."""
        return self._deployment.ledger.utxos.balance_of(address)

    def locate_transaction(self, txid: Hash32) -> TxLocation:
        """The active-chain location of a transaction.

        Raises:
            UnknownTransactionError: when not on the active chain.
        """
        self._ensure_index()
        location = self._tx_location.get(txid)
        if location is None:
            raise UnknownTransactionError(
                f"transaction {txid.hex()[:12]}… is not on the active chain"
            )
        return location

    # -------------------------------------------------------------- index
    def _ensure_index(self) -> None:
        tip = self._deployment.ledger.tip
        tip_hash = tip.block_hash if tip is not None else None
        if tip_hash == self._indexed_tip:
            return
        self._rebuild()
        self._indexed_tip = tip_hash

    def _rebuild(self) -> None:
        self._tx_location.clear()
        self._events.clear()
        self._output_owner.clear()
        store = self._deployment.ledger.store
        for header in store.iter_active_headers():
            if not store.has_body(header.block_hash):
                continue
            block = store.body(header.block_hash)
            for position, tx in enumerate(block.transactions):
                self._tx_location[tx.txid] = TxLocation(
                    block_hash=header.block_hash,
                    height=header.height,
                    index=position,
                )
                self._index_transaction(tx, header)

    def _index_transaction(self, tx: Transaction, header) -> None:
        for inp in tx.inputs:
            owner = self._output_owner.pop(inp.outpoint, None)
            if owner is None:
                continue
            address, amount = owner
            self._record(
                address,
                AddressEvent(
                    txid=tx.txid,
                    block_hash=header.block_hash,
                    height=header.height,
                    direction="out",
                    amount=amount,
                ),
            )
        for index, output in enumerate(tx.outputs):
            self._output_owner[
                OutPoint(txid=tx.txid, index=index)
            ] = (output.address, output.value)
            self._record(
                output.address,
                AddressEvent(
                    txid=tx.txid,
                    block_hash=header.block_hash,
                    height=header.height,
                    direction="in",
                    amount=output.value,
                ),
            )

    def _record(self, address: bytes, event: AddressEvent) -> None:
        self._events.setdefault(address, []).append(event)
