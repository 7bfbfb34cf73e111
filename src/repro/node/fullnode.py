"""Full node: validates and stores the complete ledger.

The participant role of the full-replication baseline, and the reference
against which partial-storage roles are checked for state agreement.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.chainstore import Ledger
from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.errors import ValidationError
from repro.net.network import Network
from repro.node.base import BaseNode


class FullNode(BaseNode):
    """A node that keeps a fully-validating ledger (every body, forever)."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        genesis: Block,
        limits: ValidationLimits = DEFAULT_LIMITS,
    ) -> None:
        super().__init__(node_id, network, limits=limits, with_mempool=True)
        self.ledger = Ledger(genesis=genesis, limits=limits)
        # Keep BaseNode.store aliased to the ledger's store so storage
        # accounting sees the same object regardless of role.
        self.store = self.ledger.store

    # ------------------------------------------------------------ consumes
    def accept_block(self, block: Block) -> bool:
        """Validate + apply a block; prunes confirmed txs from the mempool.

        Returns ``True`` when newly applied.

        Raises:
            ValidationError / ForkError: propagated from the ledger.
        """
        applied = self.ledger.accept_block(block)
        if applied and self.mempool is not None:
            self.mempool.remove_confirmed(block.transactions)
        return applied

    # ------------------------------------------------------------- queries
    @property
    def height(self) -> int:
        """The validated chain tip height."""
        return self.ledger.height
