"""Sync engine: node bootstrap and membership-repair body transfers.

Owns the ``SYNC_REQUEST`` / ``SYNC_HEADERS`` / ``SYNC_BODIES`` exchanges
shared by three flows: a new node joining (headers + its assigned
bodies), graceful departure, and crash repair.  The join state machine
itself lives in :mod:`repro.core.bootstrap` and the shrinkage planner in
:mod:`repro.core.departure`; this engine holds their in-flight session
state and routes their wire traffic.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.chain.block import Block, HEADER_SIZE
from repro.core.metrics import BootstrapReport
from repro.crypto.hashing import Hash32
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.node.clusternode import ClusterNode
from repro.protocols.router import MessageRouter, ProtocolEngine

#: Callback signature of a generic SYNC_BODIES consumer (repair flows).
SyncSession = Callable[[ClusterNode, int, Sequence[Block]], None]


class BootstrapState:
    """Mutable bookkeeping for one in-flight join."""

    def __init__(
        self,
        report: BootstrapReport,
        contact: int,
        old_members: tuple[int, ...],
    ) -> None:
        self.report = report
        self.contact = contact
        self.old_members = old_members
        self.headers_received = False
        self.pending_sources: set[int] = set()
        self.expected_bodies: set[Hash32] = set()
        # What was asked of each source, to detect undeliverable bodies.
        self.requested_from: dict[int, set[Hash32]] = {}
        # Displaced copies released only after the joiner confirmed —
        # pruning earlier could erase the very replica being copied from.
        self.prune_plan: list[tuple[int, Hash32]] = []
        # The decoded UTXO snapshot when real fast-sync is enabled.
        self.utxo_snapshot = None


class SyncEngine(ProtocolEngine):
    """Join/leave/crash-repair synchronization traffic."""

    name = "sync"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        #: Joiner node id -> in-flight bootstrap state.
        self.bootstraps: dict[int, BootstrapState] = {}
        # Generic SYNC_BODIES consumers (departure repair, parity repair):
        # recipient node id -> callback(node, sender, blocks).
        self.sessions: dict[int, SyncSession] = {}

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.SYNC_REQUEST, self._on_sync_request, owner=self.name
        )
        router.register(
            MessageKind.SYNC_HEADERS, self._on_sync_headers, owner=self.name
        )
        router.register(
            MessageKind.SYNC_BODIES, self._on_sync_bodies, owner=self.name
        )

    # ------------------------------------------------------------ serving
    def _on_sync_request(self, node: BaseNode, message: Message) -> None:
        """A contact/holder answers a joiner's (or repairer's) request."""
        assert isinstance(node, ClusterNode)
        deployment = self.deployment
        tag = message.payload[0]
        if tag == "headers":
            headers = list(node.store.iter_active_headers())
            if deployment.config.transfer_state_snapshot:
                snapshot = deployment.ledger.utxos.serialize_snapshot()
            else:
                snapshot = b""
            node.send(
                MessageKind.SYNC_HEADERS,
                message.sender,
                (tuple(headers), snapshot),
                HEADER_SIZE * len(headers)
                + len(snapshot)
                + deployment.config.state_snapshot_bytes,
            )
        elif tag == "bodies":
            _, wanted = message.payload
            available = [
                node.store.body(block_hash)
                for block_hash in wanted
                if node.store.has_body(block_hash)
            ]
            node.send(
                MessageKind.SYNC_BODIES,
                message.sender,
                tuple(available),
                sum(block.size_bytes for block in available),
            )

    # ----------------------------------------------------------- receiving
    def _on_sync_headers(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        state = self.bootstraps.get(node.node_id)
        if state is None:
            return
        from repro.core.bootstrap import continue_bootstrap_with_headers

        headers, snapshot = message.payload
        continue_bootstrap_with_headers(
            self.deployment, state, headers, snapshot
        )

    def _on_sync_bodies(self, node: BaseNode, message: Message) -> None:
        assert isinstance(node, ClusterNode)
        state = self.bootstraps.get(node.node_id)
        if state is not None:
            from repro.core.bootstrap import continue_bootstrap_with_bodies

            continue_bootstrap_with_bodies(
                self.deployment, state, message.sender, message.payload
            )
            return
        session = self.sessions.get(node.node_id)
        if session is not None:
            session(node, message.sender, message.payload)

    # ------------------------------------------------- fault-layer probes
    def watch_bootstrap(self, node_id: int) -> None:
        """Under faults, guard one join until it completes.

        Each firing re-requests whatever phase stalled — headers from
        an alternate live contact, bodies from alternate live replicas —
        and, at the attempts cap, strands the unreachable bodies as
        ``bodies_unavailable`` so the join degrades instead of hanging.
        Never started on clean networks.
        """
        if self.network.faults is None:
            return
        self.deployment.reliability.watch(
            "sync_request",
            waiting=lambda: self._joining(node_id),
            kick=lambda attempt: self._rerequest(node_id, attempt),
            exhausted=lambda: self._strand(node_id),
        )

    def _joining(self, node_id: int) -> bool:
        """Still mid-join (not completed, and the joiner has not left)."""
        return (
            node_id in self.bootstraps
            and self.network.faults is not None
            and node_id in self.deployment.nodes
        )

    def _rerequest(self, node_id: int, attempt: int) -> bool:
        """Re-drive the stalled phase; true when that completed the join."""
        from repro.core.bootstrap import _maybe_complete

        state = self.bootstraps[node_id]
        node = self.deployment.nodes[node_id]
        if not state.headers_received:
            candidates = self.network.live_members(state.old_members)
            if candidates:
                state.contact = candidates[attempt % len(candidates)]
                self.router.note_retry("sync_request")
                node.send(
                    MessageKind.SYNC_REQUEST, state.contact, ("headers",), 64
                )
        elif state.expected_bodies:
            self._replan_bodies(state, node)
            _maybe_complete(self.deployment, state)
        return self.bootstraps.get(node_id) is not state

    def _strand(self, node_id: int) -> None:
        """Every retry spent: degrade the join rather than hang it."""
        from repro.core.bootstrap import _maybe_complete

        state = self.bootstraps[node_id]
        for missing in sorted(state.expected_bodies):
            state.report.bodies_unavailable.append(missing)
        state.expected_bodies.clear()
        state.pending_sources.clear()
        _maybe_complete(self.deployment, state)

    def _replan_bodies(self, state: BootstrapState, node: ClusterNode) -> None:
        """Re-request outstanding bodies, failing over to live replicas."""
        faults = self.network.faults
        by_source: dict[int, list[Hash32]] = {}
        unservable: list[Hash32] = []
        for block_hash in sorted(state.expected_bodies):
            source = None
            for candidate in sorted(self.deployment.nodes):
                if candidate == node.node_id or not faults.is_live(candidate):
                    continue
                peer = self.deployment.nodes[candidate]
                if peer.store.has_body(block_hash):
                    source = candidate
                    break
            if source is None:
                unservable.append(block_hash)
            else:
                by_source.setdefault(source, []).append(block_hash)
        for block_hash in unservable:
            state.expected_bodies.discard(block_hash)
            state.report.bodies_unavailable.append(block_hash)
        state.pending_sources = set(by_source)
        state.requested_from = {
            source: set(wanted) for source, wanted in by_source.items()
        }
        for source, wanted in sorted(by_source.items()):
            self.router.note_retry("sync_request")
            node.send(
                MessageKind.SYNC_REQUEST,
                source,
                ("bodies", tuple(wanted)),
                64 + 32 * len(wanted),
            )

    # ---------------------------------------------------------- lifecycle
    def join_new_node(self) -> BootstrapReport:
        """Admit a brand-new node (see :mod:`repro.core.bootstrap`)."""
        from repro.core.bootstrap import start_bootstrap

        return start_bootstrap(self.deployment)

    def leave_node(self, node_id: int):
        """Gracefully retire a member (see :mod:`repro.core.departure`)."""
        from repro.core.departure import start_departure

        return start_departure(self.deployment, node_id)

    def repair_after_crash(self, node_id: int):
        """Re-replicate a crashed member's blocks from survivors."""
        from repro.core.departure import start_crash_repair

        return start_crash_repair(self.deployment, node_id)
