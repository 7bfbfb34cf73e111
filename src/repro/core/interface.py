"""The deployment interface every storage strategy implements.

A *deployment* owns a population of nodes on one simulated network and
implements how blocks reach stable storage.  The experiment harness only
talks to this interface, so ICIStrategy and the baselines are drop-in
interchangeable in every bench.

Every deployment also owns a :class:`~repro.protocols.router.MessageRouter`:
protocol engines (or the deployment itself, for the simpler baselines)
register one handler per message kind at construction time, and every
delivered message dispatches through the router — an unregistered kind
raises :class:`~repro.errors.ProtocolError` instead of being silently
dropped.  A :class:`~repro.core.metrics.MetricsRecorder` observer on the
router turns send/deliver/finalize events into deployment metrics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.chain.block import Block
from repro.core.metrics import (
    BootstrapReport,
    DeploymentMetrics,
    MetricsRecorder,
)
from repro.crypto.hashing import Hash32
from repro.net.message import Message
from repro.net.network import Network
from repro.protocols.query import QueryRecord
from repro.protocols.router import MessageRouter, ProtocolEngine
from repro.storage.accounting import NetworkStorageReport, report_network


class StorageDeployment(ABC):
    """Base class for strategy deployments.

    Subclasses populate :attr:`nodes` (``node_id -> BaseNode``-ish objects
    exposing ``.store``) during construction, register message handlers on
    :attr:`router` (directly or via :meth:`install_engine`), and implement
    dissemination, retrieval, and bootstrap.
    """

    #: The run's :class:`~repro.obs.tracer.Tracer`, set by
    #: :func:`~repro.obs.hooks.install_tracing`; engines that mirror
    #: their decisions as instants read it here, so an engine enabled
    #: after tracing was installed is traced too.
    tracer = None

    def __init__(self, network: Network) -> None:
        self.network = network
        self.metrics = DeploymentMetrics()
        self.nodes: dict[int, object] = {}
        self.router = MessageRouter()
        self.router.add_observer(MetricsRecorder(self.metrics))
        self.engines: dict[str, ProtocolEngine] = {}

    # -------------------------------------------------------------- routing
    def install_engine(self, engine: ProtocolEngine) -> ProtocolEngine:
        """Add a protocol engine and let it claim its message kinds.

        Returns the engine so construction can chain:
        ``self.query = self.install_engine(QueryEngine(self))``.
        """
        self.engines[engine.name] = engine
        engine.install(self.router)
        return engine

    def on_message(self, node, message: Message) -> None:
        """Dispatch a delivered message through the router.

        Raises:
            ProtocolError: when no handler is registered for the kind.
        """
        self.router.dispatch(node, message)

    @property
    def delivery_entry(self):
        """What a node binds at ``attach``: ``router.dispatch`` itself (no
        frame spent here per delivery) unless ``on_message`` is overridden."""
        if type(self).on_message is StorageDeployment.on_message:
            return self.router.dispatch
        return self.on_message

    @property
    def note_send(self):
        """Instrumentation hook invoked by every node's ``send``."""
        return self.router.note_send

    # ----------------------------------------------------------- lifecycle
    @abstractmethod
    def disseminate(self, block: Block, proposer_id: int) -> None:
        """Inject a freshly-sealed block at its proposer.

        Schedules all relay/verification traffic; callers drive the clock
        (``run`` / ``run_for``) to completion.
        """

    @abstractmethod
    def retrieve_block(
        self, requester_id: int, block_hash: Hash32
    ) -> QueryRecord:
        """Start an asynchronous block-body retrieval for a node.

        Returns the live :class:`QueryRecord`; its ``completed_at`` fills
        in once the simulated response arrives.
        """

    @abstractmethod
    def join_new_node(self) -> BootstrapReport:
        """Bootstrap a brand-new participant.

        Returns the live :class:`BootstrapReport`; drive the clock until
        ``report.complete``.
        """

    # ------------------------------------------------------------- common
    def run(self) -> None:
        """Drain all pending simulated events."""
        self.network.run()

    def run_for(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``."""
        self.network.run_for(seconds)

    def storage_report(self) -> NetworkStorageReport:
        """Per-node and aggregate ledger bytes right now."""
        return report_network(
            {
                node_id: node.store  # type: ignore[attr-defined]
                for node_id, node in self.nodes.items()
            }
        )

    @property
    def node_count(self) -> int:
        """Number of deployed nodes."""
        return len(self.nodes)
