"""The DHT protocol engine: Kademlia-style lookups over the router.

Installed on every ICI deployment so its five message kinds are always
registered (router coverage and report schemas stay uniform), but — like
the anti-entropy engine — completely dormant until
``deployment.enable_dht()``: until then it adds no observer, owns no
routing state, sends nothing, and draws no randomness, so fixed-path
runs stay byte-identical.

Enabled, the engine keeps one :class:`~repro.dht.routing.RoutingTable`
and one :class:`~repro.dht.records.ProviderStore` per node and speaks
three sub-protocols, all dispatched through the deployment's
:class:`~repro.protocols.router.MessageRouter`:

* **FIND_NODE/NODES** — iterative node lookup with ``α`` probes in
  flight, each probe a tracked request (retry/timeout/degrade ride the
  shared :class:`~repro.protocols.reliability.RequestTracker`
  machinery, so chaos-weather counters cover the overlay for free); a
  peer that stays silent through the retries is evicted from the
  requester's bucket.
* **FIND_VALUE/VALUE** — the same iteration, short-circuited by the
  first provider-record hit; the query engine resolves block holders
  through this before falling back to its placement plan.
* **STORE** — provider-record publication: on every cluster
  finalization the block's primary holder looks up the record key's
  k-nearest nodes and stores the holder set there, with virtual-time
  expiry and sweep-driven republish keeping records live under churn.

Tables are additionally maintained from *observed* router traffic: the
engine registers as a router observer at enable time and folds every
send/delivery's endpoint into the respective tables, so ordinary block
gossip keeps buckets warm without dedicated maintenance traffic.  A
joiner gets no table at its join, which takes the placement path like
any other: its first lookup opens an empty table (that lookup misses and
the query engine's placement plan serves the read), and observed
traffic fills it from then on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.crypto.hashing import Hash32
from repro.dht.idspace import block_key, node_key
from repro.dht.records import DEFAULT_RECORD_TTL, ProviderStore
from repro.dht.routing import DEFAULT_K, Contact, RoutingTable
from repro.errors import ClusteringError
from repro.net.message import Message, MessageKind
from repro.node.base import BaseNode
from repro.protocols.reliability import (
    PendingRequest,
    RequestTracker,
    RetryPolicy,
)
from repro.protocols.router import FinalizeEvent, MessageRouter, ProtocolEngine

#: Wire size of a key operand (the 20-byte overlay id).
KEY_BYTES = 20
#: Wire size of one serialized contact (overlay key + node reference).
CONTACT_BYTES = 26
#: Wire size of one holder entry inside a record payload.
HOLDER_BYTES = 6

#: Probe pacing: like the repair engine's, two rounds of capped backoff
#: per single-peer plan, so a dead peer degrades after two deadlines.
DHT_RETRY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=1.5, max_timeout=12.0, rounds=2
)

#: Minimum virtual seconds between republishes of one record.
REPUBLISH_INTERVAL = 30.0

#: Hard cap on contacts one lookup may query (loop backstop).
MAX_LOOKUP_CONTACTS = 24


#: Concurrent probes per iterative lookup (Kademlia's ``α``; ``k`` is
#: :data:`~repro.dht.routing.DEFAULT_K` and the provider-record lifetime
#: :data:`~repro.dht.records.DEFAULT_RECORD_TTL`).
ALPHA = 3

#: Digest-collection fanout when the repair engine routes through the
#: overlay: the coordinator polls only its ``DIGEST_FANOUT`` XOR-nearest
#: live cluster peers instead of every member.
DIGEST_FANOUT = 4


@dataclass
class DHTStats:
    """Lookup outcomes: how many completed, their messages and hops, and
    how holder resolutions ended (a local record, a FIND_VALUE hit, or
    a miss the query engine's placement plan then covers)."""

    lookups_completed: int = 0
    value_hits: int = 0
    value_misses: int = 0
    local_hits: int = 0
    lookup_messages: int = 0
    lookup_hops: int = 0


class _Lookup:
    """One iterative lookup's state: shortlist, probes, provenance."""

    __slots__ = (
        "requester",
        "target",
        "mode",
        "on_complete",
        "known",
        "generation",
        "queried",
        "failed",
        "in_flight",
        "messages",
        "hops",
        "value",
        "result",
        "done",
    )

    def __init__(
        self,
        requester: int,
        target: int,
        mode: str,
        on_complete: Callable | None,
    ) -> None:
        self.requester = requester
        self.target = target
        self.mode = mode  # "node" | "value"
        self.on_complete = on_complete
        #: Candidate node id -> overlay key (grows as responses arrive).
        self.known: dict[int, int] = {}
        #: Candidate node id -> discovery depth (seeds are 0).
        self.generation: dict[int, int] = {}
        self.queried: set[int] = set()
        self.failed: set[int] = set()
        self.in_flight: set[int] = set()
        self.messages = 0
        self.hops = 0
        #: FIND_VALUE hit: the provider record's holder tuple.
        self.value: tuple[int, ...] | None = None
        #: Final result handed to ``on_complete``.
        self.result: object | None = None
        self.done = False


class DHTEngine(ProtocolEngine):
    """Kademlia-style overlay, dormant until :meth:`enable`."""

    name = "dht"

    def __init__(self, deployment) -> None:
        super().__init__(deployment)
        self.enabled = False
        self.stats = DHTStats()
        #: node id -> routing table (populated at enable, or at a
        #: joiner's first lookup).
        self.tables: dict[int, RoutingTable] = {}
        #: node id -> provider-record slice.
        self.providers: dict[int, ProviderStore] = {}
        self.tracker = RequestTracker(
            deployment.network.clock,
            deployment.router,
            policy=DHT_RETRY_POLICY,
        )
        #: Request ids of the tracked lookup probes.
        self._ids = itertools.count(1)
        #: node id -> cached overlay key (survives departures).
        self._keys: dict[int, int] = {}
        #: node id -> its one Contact record (same lifetime as ``_keys``).
        self._contacts: dict[int, Contact] = {}
        #: (cluster id, block hash) -> last publish time (republish gate).
        self._published_at: dict[tuple[int, Hash32], float] = {}

    def install(self, router: MessageRouter) -> None:
        router.register(
            MessageKind.DHT_FIND_NODE, self._on_find_node, owner=self.name
        )
        router.register(
            MessageKind.DHT_NODES, self._on_nodes, owner=self.name
        )
        router.register(
            MessageKind.DHT_FIND_VALUE, self._on_find_value, owner=self.name
        )
        router.register(
            MessageKind.DHT_VALUE, self._on_value, owner=self.name
        )
        router.register(
            MessageKind.DHT_STORE, self._on_store, owner=self.name
        )

    # ------------------------------------------------------------ lifecycle
    def enable(self) -> "DHTEngine":
        """Activate the overlay (idempotent).

        Seeds every node's routing table from its cluster co-members
        plus one bridge contact per foreign cluster (the same shape as
        the physical overlay), registers the engine as a router
        observer so ordinary traffic keeps buckets warm, and publishes
        provider records for every block already finalized.  Publishes
        ride the normal message fabric — drive the network afterwards
        to drain them.
        """
        if self.enabled:
            return self
        self.enabled = True
        self.router.add_observer(self)
        for node_id in sorted(self.deployment.nodes):
            self._table(node_id)
        self._seed_tables()
        self._publish_existing()
        return self

    # ---------------------------------------------------------- id plumbing
    def key_of(self, node_id: int) -> int:
        """A node's overlay key (cached; derived from its address)."""
        key = self._keys.get(node_id)
        if key is None:
            key = node_key(self.deployment.nodes[node_id].address)
            self._keys[node_id] = key
        return key

    def contact_of(self, node_id: int) -> Contact:
        """The (cached) Contact record for a current member."""
        contact = self._contacts.get(node_id)
        if contact is None:
            contact = Contact(node_id, self.key_of(node_id))
            self._contacts[node_id] = contact
        return contact

    def _table(self, node_id: int) -> RoutingTable:
        table = self.tables.get(node_id)
        if table is None:
            table = RoutingTable(node_id, self.key_of(node_id), k=DEFAULT_K)
            self.tables[node_id] = table
            self.providers[node_id] = ProviderStore()
        return table

    def _seed_tables(self) -> None:
        views = sorted(
            self.deployment.clusters.views(), key=lambda v: v.cluster_id
        )
        bridges = {
            view.cluster_id: min(view.members) for view in views if view.members
        }
        for view in views:
            members = sorted(view.members)
            for node_id in members:
                table = self._table(node_id)
                for peer in members:
                    if peer != node_id:
                        table.update(self.contact_of(peer))
                for cluster_id, bridge in sorted(bridges.items()):
                    if cluster_id != view.cluster_id and bridge != node_id:
                        table.update(self.contact_of(bridge))

    # -------------------------------------------------- router observation
    # The engine observes its own deployment's traffic (added at enable):
    # both endpoints of every message are live peers worth remembering.
    # Two calls per message, so each reads the cached Contact directly and
    # makes one call, the table's ``update``; the probe candidate it
    # returns is ignored (a silent peer is evicted when a probe degrades).
    def on_send(self, message: Message) -> None:
        table = self.tables.get(message.sender)
        peer = message.recipient
        if table is not None and peer in self.deployment.nodes:
            table.update(self._contacts.get(peer) or self.contact_of(peer))

    def on_deliver(self, node: BaseNode, message: Message) -> None:
        table = self.tables.get(node.node_id)
        peer = message.sender
        if table is not None and peer in self.deployment.nodes:
            table.update(self._contacts.get(peer) or self.contact_of(peer))

    def on_finalize(self, event: FinalizeEvent) -> None:
        if (
            not event.cluster_final
            or not event.accepted
            or event.cluster_id is None
        ):
            return
        # Several members report cluster finality for the same block;
        # only the first publishes (republish is the sweep's job).
        if (event.cluster_id, event.block_hash) in self._published_at:
            return
        self._publish_cluster(event.block_hash, event.cluster_id)

    # ------------------------------------------------------------- requests
    def _evict(self, owner: int, peer: int) -> None:
        """Drop a contact that stayed silent through every retry."""
        table = self.tables.get(owner)
        if table is not None:
            table.remove(peer)

    def _probe_degraded(self, request: PendingRequest) -> None:
        lookup: _Lookup = request.context
        peer = request.plan[0]
        lookup.in_flight.discard(peer)
        lookup.failed.add(peer)
        self._evict(lookup.requester, peer)
        if not lookup.done:
            self._advance(lookup)

    # ----------------------------------------------------- iterative lookup
    def lookup_node(
        self,
        requester: int,
        target: int,
        on_complete: Callable | None = None,
    ) -> _Lookup:
        """Iterative FIND_NODE toward ``target`` from ``requester``."""
        return self._start_lookup(requester, target, "node", on_complete)

    def lookup_value(
        self,
        requester: int,
        key: int,
        on_complete: Callable | None = None,
    ) -> _Lookup:
        """Iterative FIND_VALUE for ``key`` from ``requester``."""
        return self._start_lookup(requester, key, "value", on_complete)

    def find_holders(
        self,
        requester: int,
        block_hash: Hash32,
        on_complete: Callable[[tuple[int, ...] | None], None],
    ) -> "_Lookup | None":
        """Resolve a block's holder set through the overlay.

        A locally stored (unexpired) provider record answers without
        any wire traffic; otherwise an iterative FIND_VALUE runs and
        ``on_complete`` receives the holder tuple (or ``None`` on a
        miss — the query engine then falls back to its legacy plan).
        """
        key = block_key(block_hash)
        store = self.providers.get(requester)
        if store is not None:
            holders = store.get(key, self.network.now)
            if holders:
                self.stats.local_hits += 1
                on_complete(holders)
                return None
        return self.lookup_value(requester, key, on_complete)

    def _start_lookup(
        self,
        requester: int,
        target: int,
        mode: str,
        on_complete: Callable | None,
    ) -> _Lookup:
        lookup = _Lookup(requester, target, mode, on_complete)
        for contact in self._table(requester).closest(target, DEFAULT_K):
            lookup.known[contact.node_id] = contact.key
            lookup.generation[contact.node_id] = 0
        self._advance(lookup)
        return lookup

    def _advance(self, lookup: _Lookup) -> None:
        if lookup.done:
            return
        # ``known`` and ``failed`` change only when an answer or a degrade
        # arrives, never inside a probe's send, so one XOR ordering serves
        # every probe this call makes.
        known, target = lookup.known, lookup.target
        ordered = sorted(
            (n for n in known if n != lookup.requester),
            key=lambda n: known[n] ^ target,
        )
        nearest = [n for n in ordered if n not in lookup.failed][: DEFAULT_K]
        candidates = (n for n in ordered if n not in lookup.queried)
        while len(lookup.in_flight) < ALPHA:
            if len(lookup.queried) >= MAX_LOOKUP_CONTACTS:
                break
            # Converged: the k nearest known (non-failed) peers were all asked.
            if nearest and all(n in lookup.queried for n in nearest):
                break
            peer = next(candidates, None)
            if peer is None:
                break
            self._probe(lookup, peer)
        if not lookup.in_flight and not lookup.done:
            self._complete(lookup)

    def _probe(self, lookup: _Lookup, peer: int) -> None:
        lookup.queried.add(peer)
        lookup.in_flight.add(peer)
        kind = (
            MessageKind.DHT_FIND_VALUE
            if lookup.mode == "value"
            else MessageKind.DHT_FIND_NODE
        )

        def send(target: int, request: PendingRequest) -> None:
            requester = self.deployment.nodes.get(lookup.requester)
            if requester is None:
                return
            lookup.messages += 1
            requester.send(
                kind,
                target,
                (request.request_id, lookup.target),
                KEY_BYTES + 8,
            )

        self.tracker.begin(
            next(self._ids),
            kind.value,
            [peer],
            send,
            on_degraded=self._probe_degraded,
            context=lookup,
        )

    def _absorb(
        self,
        request_id: int,
        contacts: tuple[tuple[int, int], ...],
        holders: tuple[int, ...] | None,
    ) -> None:
        request = self.tracker.resolve(request_id)
        if request is None:
            return  # duplicate delivery or post-degrade straggler
        lookup: _Lookup = request.context
        peer = request.plan[0]
        lookup.messages += 1
        lookup.in_flight.discard(peer)
        depth = lookup.generation.get(peer, 0) + 1
        lookup.hops = max(lookup.hops, depth)
        if lookup.done:
            return  # a late answer after completion changes nothing
        if holders and lookup.mode == "value":
            lookup.value = holders
            self._complete(lookup)
            return
        table = self.tables.get(lookup.requester)
        cached = self._contacts
        for node_id, key in contacts:
            if node_id == lookup.requester:
                continue
            if node_id not in lookup.known:
                lookup.known[node_id] = key
                lookup.generation[node_id] = depth
            if table is not None:
                contact = cached.get(node_id)
                if contact is None or contact.key != key:
                    contact = Contact(node_id, key)
                table.update(contact)
        self._advance(lookup)

    def _complete(self, lookup: _Lookup) -> None:
        lookup.done = True
        self.stats.lookups_completed += 1
        self.stats.lookup_messages += lookup.messages
        self.stats.lookup_hops += lookup.hops
        if lookup.mode == "value":
            if lookup.value:
                self.stats.value_hits += 1
            else:
                self.stats.value_misses += 1
            lookup.result = lookup.value
        else:
            lookup.result = [
                Contact(node_id, lookup.known[node_id])
                for node_id in sorted(
                    (
                        n
                        for n in lookup.known
                        if n != lookup.requester and n not in lookup.failed
                    ),
                    key=lambda n: lookup.known[n] ^ lookup.target,
                )[: DEFAULT_K]
            ]
        if lookup.on_complete is not None:
            lookup.on_complete(lookup.result)

    # ----------------------------------------------------- provider records
    def _publish_existing(self) -> None:
        for view in sorted(
            self.deployment.clusters.views(), key=lambda v: v.cluster_id
        ):
            for header in self.deployment.ledger.store.iter_active_headers():
                self._publish_cluster(header.block_hash, view.cluster_id)

    def _publish_cluster(self, block_hash: Hash32, cluster_id: int) -> None:
        """Publish one (block, cluster)'s holder set into the overlay."""
        deployment = self.deployment
        try:
            members = deployment.clusters.members_of(cluster_id)
        except ClusteringError:
            return  # cluster dissolved since the event fired
        header = deployment.ledger.store.header(block_hash)
        planner = getattr(deployment, "replication_planner", None)
        if planner is not None and not header.is_genesis:
            assigned = planner.read_plan(header, members)
        else:
            assigned = deployment.placement.holders(
                header, members, deployment.config.replication
            )
        holders = tuple(self.network.live_members(sorted(assigned)))
        if not holders:
            return
        publisher = holders[0]
        key = block_key(block_hash)
        now = self.network.now
        self._published_at[(cluster_id, block_hash)] = now
        # The publisher always keeps a local copy: the record stays
        # resolvable even while the k-nearest stores are in flight.
        self.providers.setdefault(publisher, ProviderStore()).put(
            key, holders, now, DEFAULT_RECORD_TTL
        )

        def stored(contacts) -> None:
            publisher_node = deployment.nodes.get(publisher)
            if publisher_node is None or not contacts:
                return
            payload_bytes = 16 + KEY_BYTES + HOLDER_BYTES * len(holders)
            for contact in contacts[: DEFAULT_K]:
                if contact.node_id == publisher:
                    continue
                publisher_node.send(
                    MessageKind.DHT_STORE,
                    contact.node_id,
                    (key, holders, DEFAULT_RECORD_TTL),
                    payload_bytes,
                )

        self.lookup_node(publisher, key, stored)

    def on_sweep(self) -> None:
        """Anti-entropy hook: expire lapsed records, republish due ones.

        Called by the repair engine at the top of each sweep while the
        overlay is enabled, giving records the same periodic-maintenance
        cadence the replica floor already has — no timers of its own,
        so full ``run()`` drains still terminate.
        """
        now = self.network.now
        for node_id in sorted(self.providers):
            self.providers[node_id].expire(now)
        for view in sorted(
            self.deployment.clusters.views(), key=lambda v: v.cluster_id
        ):
            for header in self.deployment.ledger.store.iter_active_headers():
                last = self._published_at.get(
                    (view.cluster_id, header.block_hash)
                )
                if last is None or now - last >= REPUBLISH_INTERVAL:
                    self._publish_cluster(
                        header.block_hash, view.cluster_id
                    )

    # ----------------------------------------------------- repair routing
    def digest_peers(self, coordinator: int, candidates: list[int]) -> list[int]:
        """The coordinator's digest-poll subset: XOR-nearest live peers.

        Replaces whole-cluster digest fanout: only the ``digest_fanout``
        peers nearest the coordinator in the overlay id space are
        polled each sweep; the analysis pass excludes the rest (their
        coverage is unknown, like an unresponsive member's).
        """
        fanout = DIGEST_FANOUT
        if len(candidates) <= fanout:
            return list(candidates)
        ckey = self.key_of(coordinator)
        return sorted(candidates, key=lambda m: self.key_of(m) ^ ckey)[
            :fanout
        ]

    # ------------------------------------------------------------- handlers
    def _serialized_closest(
        self, node_id: int, target: int
    ) -> tuple[tuple[int, int], ...]:
        table = self.tables.get(node_id)
        if table is None:
            return ()
        return tuple(
            (contact.node_id, contact.key)
            for contact in table.closest(target, DEFAULT_K)
        )

    def _on_find_node(self, node: BaseNode, message: Message) -> None:
        request_id, target = message.payload
        contacts = self._serialized_closest(node.node_id, target)
        node.send(
            MessageKind.DHT_NODES,
            message.sender,
            (request_id, contacts),
            8 + CONTACT_BYTES * len(contacts),
        )

    def _on_nodes(self, node: BaseNode, message: Message) -> None:
        request_id, contacts = message.payload
        self._absorb(request_id, contacts, holders=None)

    def _on_find_value(self, node: BaseNode, message: Message) -> None:
        request_id, key = message.payload
        store = self.providers.get(node.node_id)
        holders = (
            store.get(key, self.network.now) if store is not None else ()
        )
        if holders:
            node.send(
                MessageKind.DHT_VALUE,
                message.sender,
                (request_id, key, holders, True),
                8 + KEY_BYTES + HOLDER_BYTES * len(holders),
            )
        else:
            contacts = self._serialized_closest(node.node_id, key)
            node.send(
                MessageKind.DHT_VALUE,
                message.sender,
                (request_id, key, contacts, False),
                8 + KEY_BYTES + CONTACT_BYTES * len(contacts),
            )

    def _on_value(self, node: BaseNode, message: Message) -> None:
        request_id, _key, data, found = message.payload
        if found:
            self._absorb(request_id, (), holders=data)
        else:
            self._absorb(request_id, data, holders=None)

    def _on_store(self, node: BaseNode, message: Message) -> None:
        key, holders, ttl = message.payload
        self.providers.setdefault(node.node_id, ProviderStore()).put(
            key, holders, self.network.now, ttl
        )
