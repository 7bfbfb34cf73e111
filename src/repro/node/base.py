"""Node runtime: the actor each strategy deploys per participant.

A node owns local state (chain store, mempool, keys) and delegates protocol
behaviour to its *deployment* — the strategy object that wired the scenario
(``ICIDeployment``, ``FullReplicationDeployment``, …).  This keeps protocol
logic in one inspectable place per strategy while nodes stay simple state
containers, the standard structure for deterministic protocol simulators.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.chain.chainstore import ChainStore
from repro.chain.mempool import Mempool
from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.crypto.keys import KeyPair
from repro.net.message import Message, MessageKind, sized_message
from repro.net.network import Network

#: Signature of a deployment-installed message handler.
MessageHandler = Callable[["BaseNode", Message], None]


class Deployment(Protocol):
    """The strategy-side counterpart a node routes its messages to."""

    def on_message(self, node: "BaseNode", message: Message) -> None:
        """Handle a message delivered to ``node``."""


class BaseNode:
    """A network participant: identity, local ledger state, message routing.

    Attributes:
        node_id: network-wide integer identity.
        network: the simulated fabric this node is registered on.
        store: header index + (partial) body storage.
        mempool: pending transactions (present on validating roles).
        keypair: the node's signing identity.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        limits: ValidationLimits = DEFAULT_LIMITS,
        with_mempool: bool = True,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.limits = limits
        self.store = ChainStore()
        self.mempool: Mempool | None = (
            Mempool(limits=limits) if with_mempool else None
        )
        self.keypair = KeyPair.from_seed(node_id)
        self._dispatch: MessageHandler | None = None
        self._note_send: Callable[[Message], None] | None = None
        network.register(node_id, self)

    # ------------------------------------------------------------- wiring
    def attach(self, deployment: Deployment) -> None:
        """Install the deployment that interprets this node's messages."""
        # Both ends of the per-message path are resolved once here, not per
        # message.  Deployments with a router expose a send hook and their
        # delivery entry; minimal ones (test stubs) only have on_message.
        self._note_send = getattr(deployment, "note_send", None)
        self._dispatch = getattr(
            deployment, "delivery_entry", deployment.on_message
        )

    def handle_message(self, message: Message) -> None:
        """Network entry point (called by :class:`~repro.net.network.Network`)."""
        dispatch = self._dispatch
        if dispatch is not None:
            dispatch(self, message)

    # -------------------------------------------------------------- sending
    def send(
        self,
        kind: MessageKind,
        recipient: int,
        payload: object,
        payload_bytes: int,
    ) -> None:
        """Send one sized message to ``recipient``."""
        message = sized_message(
            kind, self.node_id, recipient, payload, payload_bytes
        )
        if self._note_send is not None:
            self._note_send(message)
        self.network.send(message)

    # -------------------------------------------------------------- queries
    @property
    def address(self) -> bytes:
        """The node's coin address (proposer rewards go here)."""
        return self.keypair.address

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.node_id}, "
            f"height={self.store.height})"
        )
