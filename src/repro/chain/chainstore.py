"""Chain store: headers, bodies, forks, and the active chain.

The store is the canonical per-node ledger database.  It is deliberately
factored so a node may hold **headers for every block** but **bodies for
only some** — exactly the asymmetry ICIStrategy exploits.  The active chain
is the longest (highest) known header chain whose ancestry is fully linked;
applying/undoing bodies against the UTXO set is the caller's job (see
:class:`Ledger` below, which bundles the two for full nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.chain.block import Block, BlockHeader
from repro.chain.utxo import UndoRecord, UtxoSet
from repro.chain.validation import (
    DEFAULT_LIMITS,
    ValidationLimits,
    validate_block,
)
from repro.crypto.hashing import ZERO_HASH, Hash32
from repro.errors import ForkError, UnknownBlockError, ValidationError


class ChainStore:
    """Header index plus partial body storage.

    Storage accounting (``stored_bytes``) counts header bytes for every
    indexed header and body bytes only for bodies actually held — the
    central metric of the paper's evaluation.
    """

    def __init__(self) -> None:
        self._headers: dict[Hash32, BlockHeader] = {}
        self._bodies: dict[Hash32, Block] = {}
        self._tip: BlockHeader | None = None
        # Genesis→tip headers of the chain ending at ``_active_tip``;
        # ancestry is immutable, so the pair is valid until the tip moves.
        self._active_chain: list[BlockHeader] = []
        self._active_tip: BlockHeader | None = None
        self._header_bytes = 0
        self._body_bytes = 0

    # -------------------------------------------------------------- headers
    def add_header(self, header: BlockHeader) -> bool:
        """Index a header; returns ``False`` when already known.

        Raises:
            ValidationError: when the parent is unknown (non-genesis) —
                headers must arrive parent-first.
        """
        block_hash = header.block_hash
        if block_hash in self._headers:
            return False
        if not header.is_genesis and header.prev_hash not in self._headers:
            raise ValidationError(
                "header arrived before its parent; fetch parents first"
            )
        self._headers[block_hash] = header
        self._header_bytes += header.size_bytes
        if self._tip is None or header.height > self._tip.height:
            self._tip = header
        return True

    def add_chain(self, headers: Sequence[BlockHeader]) -> None:
        """Index a served chain, parent first, as :meth:`add_header` would.

        When the store was empty and ``headers`` is one linked chain from
        genesis, that chain is the active chain: it also seeds the cache
        :meth:`iter_active_headers` would otherwise fill by walking every
        parent back from the tip.

        Raises:
            ValidationError: when a header arrives before its parent.
        """
        index = self._headers
        linked = not index
        expected_parent = ZERO_HASH
        tip = self._tip
        added_bytes = 0
        try:
            for height, header in enumerate(headers):
                block_hash = header.block_hash
                if linked and (
                    header.height != height
                    or header.prev_hash != expected_parent
                ):
                    linked = False
                expected_parent = block_hash
                if block_hash in index:
                    continue
                if header.prev_hash not in index and not header.is_genesis:
                    raise ValidationError(
                        "header arrived before its parent; fetch parents first"
                    )
                index[block_hash] = header
                added_bytes += header.size_bytes
                if tip is None or header.height > tip.height:
                    tip = header
        finally:
            self._header_bytes += added_bytes
            self._tip = tip
        if linked and headers:
            self._active_chain = list(headers)
            self._active_tip = tip

    def has_header(self, block_hash: Hash32) -> bool:
        """Is this header indexed?"""
        return block_hash in self._headers

    def header(self, block_hash: Hash32) -> BlockHeader:
        """The indexed header for ``block_hash``.

        Raises:
            UnknownBlockError: when the hash is not indexed.
        """
        try:
            return self._headers[block_hash]
        except KeyError:
            raise UnknownBlockError(
                f"unknown block {block_hash.hex()[:12]}…"
            ) from None

    @property
    def tip(self) -> BlockHeader | None:
        """Highest indexed header (``None`` before genesis arrives)."""
        return self._tip

    def iter_active_headers(self) -> Iterator[BlockHeader]:
        """Active chain headers from genesis to tip."""
        tip = self._tip
        if tip is not self._active_tip:
            # Walk back only to where the new tip's ancestry meets the
            # cached chain (one step for an extension, the fork point
            # after a reorg) and splice; a new list each time, so
            # iterators handed out earlier keep their snapshot.
            cached = self._active_chain
            suffix: list[BlockHeader] = []
            current = tip
            while not (
                current.height < len(cached)
                and cached[current.height] is current
            ):
                suffix.append(current)
                if current.is_genesis:
                    break
                current = self.header(current.prev_hash)
            suffix.reverse()
            self._active_chain = cached[: suffix[0].height] + suffix
            self._active_tip = tip
        return iter(self._active_chain)

    # --------------------------------------------------------------- bodies
    def add_body(self, block: Block) -> bool:
        """Store a full block body; indexes the header if needed.

        Returns ``False`` when the body was already held.
        """
        self.add_header(block.header)
        if block.block_hash in self._bodies:
            return False
        self._bodies[block.block_hash] = block
        self._body_bytes += block.body_size_bytes
        return True

    def drop_body(self, block_hash: Hash32) -> bool:
        """Discard a held body, keeping the header (pruning)."""
        block = self._bodies.pop(block_hash, None)
        if block is None:
            return False
        self._body_bytes -= block.body_size_bytes
        return True

    def has_body(self, block_hash: Hash32) -> bool:
        """Is this body held locally?"""
        return block_hash in self._bodies

    def body(self, block_hash: Hash32) -> Block:
        """The stored body for ``block_hash``.

        Raises:
            UnknownBlockError: when the body is not held locally.
        """
        try:
            return self._bodies[block_hash]
        except KeyError:
            raise UnknownBlockError(
                f"body not stored locally: {block_hash.hex()[:12]}…"
            ) from None

    def iter_bodies(self) -> Iterator[Block]:
        """All bodies held locally, in insertion order."""
        yield from self._bodies.values()

    # ----------------------------------------------------------- accounting
    @property
    def header_count(self) -> int:
        """Number of indexed headers."""
        return len(self._headers)

    @property
    def body_count(self) -> int:
        """Number of bodies held locally."""
        return len(self._bodies)

    @property
    def header_bytes(self) -> int:
        """Bytes consumed by indexed headers."""
        return self._header_bytes

    @property
    def body_bytes(self) -> int:
        """Bytes consumed by held bodies (transactions only)."""
        return self._body_bytes

    @property
    def stored_bytes(self) -> int:
        """Total ledger bytes on disk: headers + held bodies."""
        return self.header_bytes + self.body_bytes


@dataclass
class _ActiveLink:
    """One applied block on the active chain, with its undo record."""

    header: BlockHeader
    undo: UndoRecord


class Ledger:
    """A validating ledger: chain store + UTXO set + reorg handling.

    This is what a *full node* (and a baseline replica) runs.  Cluster nodes
    in ICIStrategy use a bare :class:`ChainStore` plus cluster-held state
    instead, because no single node holds every body.
    """

    def __init__(
        self,
        genesis: Block | None = None,
        limits: ValidationLimits = DEFAULT_LIMITS,
    ) -> None:
        self.store = ChainStore()
        self.utxos = UtxoSet()
        self.limits = limits
        self._active: list[_ActiveLink] = []
        if genesis is not None:
            self.accept_block(genesis)

    # -------------------------------------------------------------- queries
    @property
    def tip(self) -> BlockHeader | None:
        """Header of the last applied block (the validated chain tip)."""
        return self._active[-1].header if self._active else None

    @property
    def height(self) -> int:
        """Height of the applied tip (-1 when empty)."""
        return -1 if not self._active else self._active[-1].header.height

    def active_hash_at(self, height: int) -> Hash32:
        """Hash of the applied block at ``height``."""
        if not 0 <= height < len(self._active):
            raise UnknownBlockError(f"no active block at height {height}")
        return self._active[height].header.block_hash

    # ------------------------------------------------------------ mutation
    def accept_block(self, block: Block) -> bool:
        """Validate and apply a block extending the current tip.

        Returns ``True`` when the block was applied, ``False`` when it was a
        duplicate of an already-applied block.

        Raises:
            ValidationError: on any consensus-rule violation.
            ForkError: when the block does not extend the applied tip (use
                :meth:`reorg_to` for competing branches).
        """
        if self._active and block.block_hash == self._active[-1].header.block_hash:
            return False
        prev_header = self._active[-1].header if self._active else None
        if prev_header is not None and block.header.prev_hash != prev_header.block_hash:
            if self.store.has_header(block.block_hash):
                return False
            raise ForkError(
                "block does not extend the applied tip; reorg required"
            )
        validate_block(block, prev_header, self.utxos, self.limits)
        undo = self.utxos.apply_block(block)
        self.store.add_body(block)
        self._active.append(_ActiveLink(header=block.header, undo=undo))
        return True

    def undo_tip(self) -> BlockHeader:
        """Disconnect the tip block from the UTXO set (keeps its body).

        Raises:
            ForkError: when only genesis (or nothing) is applied.
        """
        if len(self._active) <= 1:
            raise ForkError("cannot undo genesis")
        link = self._active.pop()
        self.utxos.undo_record(link.undo)
        return link.header

    def reorg_to(self, branch: list[Block]) -> int:
        """Switch the active chain to ``branch`` (ordered, parent-first).

        ``branch[0].header.prev_hash`` must be an applied block; everything
        above it is undone, then the branch is validated and applied.

        Returns:
            The number of blocks disconnected.

        Raises:
            ForkError: when the branch does not attach or is not longer.
            ValidationError: when a branch block is invalid (the previous
                chain is restored before raising).
        """
        if not branch:
            raise ForkError("empty branch")
        attach_hash = branch[0].header.prev_hash
        attach_height = None
        for index, link in enumerate(self._active):
            if link.header.block_hash == attach_hash:
                attach_height = index
                break
        if attach_height is None:
            raise ForkError("branch does not attach to the applied chain")
        new_height = branch[-1].header.height
        if new_height <= self._active[-1].header.height:
            raise ForkError("branch is not strictly longer than active chain")

        disconnected: list[Block] = []
        while len(self._active) - 1 > attach_height:
            header = self.undo_tip()
            disconnected.append(self.store.body(header.block_hash))
        try:
            for block in branch:
                self.accept_block(block)
        except (ValidationError, ForkError):
            # Restore the original chain before propagating the failure.
            while len(self._active) - 1 > attach_height:
                self.undo_tip()
            for block in reversed(disconnected):
                self.accept_block(block)
            raise
        return len(disconnected)
