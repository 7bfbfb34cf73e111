"""Message routing: the dispatch fabric every deployment's protocols share.

A :class:`MessageRouter` maps each :class:`~repro.net.message.MessageKind`
to exactly one registered handler.  Protocol engines
(:class:`ProtocolEngine` subclasses) register their handlers at install
time; a delivered message whose kind has no handler raises
:class:`~repro.errors.ProtocolError` instead of being silently dropped.

The router doubles as the deployment's instrumentation spine: observers
(:class:`RouterObserver`) receive ``on_send`` / ``on_deliver`` /
``on_finalize`` callbacks, which is how :mod:`repro.core.metrics` records
finalization times and per-kind dispatch counters without reaching into
engine internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.errors import ProtocolError
from repro.net.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.gossip import GossipProtocol
    from repro.node.base import BaseNode

#: Signature of a handler registered for one message kind.
Handler = Callable[["BaseNode", Message], None]


@dataclass(frozen=True)
class FinalizeEvent:
    """A node (and possibly its whole cluster) finalized a block.

    Attributes:
        block_hash: the finalized block.
        node_id: the finalizing node (``None`` for cluster-level events
            that no single node triggered, e.g. a quorum threshold).
        cluster_id: the node's cluster/committee (``None`` when the
            deployment has no grouping).
        accepted: the cluster's verdict (``False`` = rejected-final).
        at: virtual time of the event.
        cluster_final: whether this event also marks the cluster's
            finalization (first such event per (block, cluster) wins).
    """

    block_hash: bytes
    node_id: int | None
    cluster_id: int | None
    accepted: bool
    at: float
    cluster_final: bool = True


#: The observer hooks a router publishes (all optional on an observer).
_HOOK_NAMES = (
    "on_send", "on_deliver", "on_finalize",
    "on_retry", "on_timeout", "on_degraded",
)  # fmt: skip


class RouterObserver(Protocol):
    """Instrumentation consumer for router traffic and finalizations."""

    def on_send(self, message: Message) -> None:
        """A node handed a protocol message to the network."""

    def on_deliver(self, node: "BaseNode", message: Message) -> None:
        """A message is about to be dispatched to its handler."""

    def on_finalize(self, event: FinalizeEvent) -> None:
        """A protocol engine finalized a block somewhere."""


class MessageRouter:
    """Maps message kinds to handlers; at most one handler per kind."""

    def __init__(self) -> None:
        self._handlers: dict[MessageKind, Handler] = {}
        self._owners: dict[MessageKind, str] = {}
        self._observers: list[RouterObserver] = []
        # hook name -> bound methods of the observers defining it, in
        # add_observer order: resolved once per observer, so the
        # per-message loops below do no attribute lookups.
        self._hooks: dict[str, list] = {name: [] for name in _HOOK_NAMES}
        self._on_send = self._hooks["on_send"]
        self._on_deliver = self._hooks["on_deliver"]

    # -------------------------------------------------------- registration
    def register(
        self, kind: MessageKind, handler: Handler, owner: str = "?"
    ) -> None:
        """Claim a message kind for ``handler``.

        Raises:
            ProtocolError: when the kind already has a handler (protocol
                engines must not shadow each other).
        """
        if kind in self._handlers:
            raise ProtocolError(
                f"message kind {kind.value!r} already handled by "
                f"{self._owners[kind]!r}; {owner!r} cannot claim it too"
            )
        self._handlers[kind] = handler
        self._owners[kind] = owner

    def register_gossip(
        self, protocol: "GossipProtocol", owner: str = "gossip"
    ) -> None:
        """Claim a gossip protocol's announce/request/item kinds."""
        for kind, handler in protocol.handlers.items():
            self.register(kind, handler, owner=owner)

    # ------------------------------------------------------------ queries
    @property
    def handled_kinds(self) -> frozenset[MessageKind]:
        """Every kind with a registered handler."""
        return frozenset(self._handlers)

    def owner_of(self, kind: MessageKind) -> str:
        """The registrant's name (for diagnostics and coverage tests)."""
        return self._owners[kind]

    # ----------------------------------------------------------- dispatch
    def dispatch(self, node: "BaseNode", message: Message) -> None:
        """Route one delivered message to its handler.

        Raises:
            ProtocolError: when no handler is registered for the kind —
                a misrouted message is a protocol bug, never ignorable.
        """
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ProtocolError(
                f"no handler registered for message kind "
                f"{message.kind.value!r} delivered to node {node.node_id}"
            )
        for hook in self._on_deliver:
            hook(node, message)
        handler(node, message)

    # ----------------------------------------------------- instrumentation
    def add_observer(self, observer: RouterObserver) -> None:
        """Attach an instrumentation consumer.

        Every hook is optional; the ``on_*`` methods the observer defines
        are looked up (and bound) here, once.
        """
        self._observers.append(observer)
        for name, bound in self._hooks.items():
            hook = getattr(observer, name, None)
            if hook is not None:
                bound.append(hook)

    def note_send(self, message: Message) -> None:
        """Record a protocol send (called from the node send path)."""
        for hook in self._on_send:
            hook(message)

    def notify_finalize(self, event: FinalizeEvent) -> None:
        """Publish a finalization to every observer."""
        for hook in self._hooks["on_finalize"]:
            hook(event)

    def note_retry(self, kind: str) -> None:
        """Record a reliability-layer retry send for ``kind``."""
        for hook in self._hooks["on_retry"]:
            hook(kind)

    def note_timeout(self, kind: str) -> None:
        """Record a request deadline that fired while still pending."""
        for hook in self._hooks["on_timeout"]:
            hook(kind)

    def note_degraded(self, kind: str) -> None:
        """Record a request that exhausted every replica for ``kind``."""
        for hook in self._hooks["on_degraded"]:
            hook(kind)


class ProtocolEngine:
    """One pluggable slice of a deployment's protocol behaviour.

    An engine owns the mutable state of one protocol family (e.g. block
    dissemination) and registers its message handlers with the
    deployment's router in :meth:`install`.  Engines reach sibling
    engines through ``self.deployment`` (e.g. dissemination hands a
    validated body to the verification engine), which keeps each module
    small while the router remains the single dispatch authority.
    """

    #: Registry key; also the ``owner`` tag on router registrations.
    name = "engine"

    def __init__(self, deployment) -> None:
        self.deployment = deployment

    def install(self, router: MessageRouter) -> None:
        """Register this engine's message handlers."""
        raise NotImplementedError

    # ---------------------------------------------------------- shortcuts
    @property
    def network(self):
        """The deployment's simulated fabric."""
        return self.deployment.network

    @property
    def metrics(self):
        """The deployment's metrics sink."""
        return self.deployment.metrics

    @property
    def router(self) -> MessageRouter:
        """The deployment's message router."""
        return self.deployment.router
