"""ICIStrategy — the paper's contribution, as a runnable deployment.

The deployment wires ``n`` cluster nodes (full mesh inside each cluster,
sparse bridges between them) onto a simulated network.  The class itself
is a thin facade: protocol behaviour lives in engines under
:mod:`repro.protocols` — dissemination (header/tx gossip + body routing
+ forks), verification (prepare/commit/result voting), transfer (every
fetched body), query (retrievals + SPV), sync (join/leave/crash repair)
and repair (anti-entropy) — all dispatching through the
deployment's :class:`~repro.protocols.router.MessageRouter`.  Each engine
module documents its slice of the wire protocol.

One canonical validating :class:`~repro.chain.chainstore.Ledger` tracks
chain state for stateful checks — the simulator shortcut documented in
DESIGN.md (all honest holders converge to identical state, so a single
copy is behaviourally exact while keeping memory linear in chain length
instead of ``n × chain length``).
"""

from __future__ import annotations

from repro.chain.block import Block, BlockHeader
from repro.chain.chainstore import Ledger
from repro.chain.genesis import make_genesis
from repro.clustering.algorithms import (
    ClusteringAlgorithm,
    KMeansClustering,
    LatencyAwareGreedyClustering,
    RandomBalancedClustering,
)
from repro.clustering.coordinates import Coordinate
from repro.clustering.membership import ClusterTable
from repro.core.audit import cluster_integrity
from repro.core.bootstrap import start_bootstrap
from repro.core.config import ICIConfig
from repro.core.departure import start_crash_repair, start_departure
from repro.core.explorer import ChainExplorer
from repro.core.interface import StorageDeployment
from repro.core.metrics import BootstrapReport
from repro.core.parity import ParityManager
from repro.crypto.hashing import Hash32
from repro.crypto.keys import KeyPair
from repro.dht.engine import DHTEngine
from repro.errors import ConfigurationError
from repro.net.domains import FailureDomainMap
from repro.net.network import Network
from repro.net.topology import clustered_topology
from repro.node.clusternode import ClusterNode
from repro.protocols.dissemination import DisseminationEngine
from repro.protocols.intracluster import IntraClusterEngine
from repro.protocols.query import (
    QUERY_TIMEOUT,
    SYNC_REQUEST_BYTES,
    QueryEngine,
    QueryRecord,
)
from repro.protocols.reliability import RequestTracker
from repro.protocols.repair import AntiEntropyEngine
from repro.protocols.spv import attach_light_client, start_spv_check
from repro.protocols.sync import SyncEngine
from repro.protocols.transfer import TransferEngine
from repro.storage.coded import ArchivalTier
from repro.storage.heat import HeatTracker, ReplicationPlanner
from repro.storage.placement import (
    CapacityWeightedPlacement,
    DomainSpreadPlacement,
    ModuloSlotPlacement,
    PlacementPolicy,
    RendezvousPlacement,
    RoundRobinPlacement,
)

__all__ = ["ICIDeployment", "QUERY_TIMEOUT", "SYNC_REQUEST_BYTES"]


def _make_placement(config: ICIConfig) -> PlacementPolicy:
    if config.placement == "hash":
        return RendezvousPlacement()
    if config.placement == "modulo":
        return ModuloSlotPlacement()
    if config.placement == "round_robin":
        return RoundRobinPlacement()
    return CapacityWeightedPlacement(
        capacities=dict(config.node_capacities)
    )


def _make_clustering(
    config: ICIConfig, coordinates: list[Coordinate] | None
) -> ClusteringAlgorithm:
    if config.clustering == "random":
        return RandomBalancedClustering(seed=config.seed)
    if coordinates is None:
        raise ConfigurationError(
            f"clustering={config.clustering!r} needs node coordinates"
        )
    if config.clustering == "kmeans":
        return KMeansClustering(coordinates, seed=config.seed)
    return LatencyAwareGreedyClustering(coordinates, seed=config.seed)


class ICIDeployment(StorageDeployment):
    """A live ICIStrategy network.

    Args:
        n_nodes: initial participant count.
        config: strategy knobs (cluster count, replication, policies).
        network: pre-built fabric; a default one is created when omitted.
        coordinates: per-node plane positions, required by the
            coordinate-aware clustering algorithms.
        genesis: ledger genesis; a single-faucet genesis (faucet = seed
            0's wallet, the workload generator's default) when omitted.
    """

    def __init__(
        self,
        n_nodes: int,
        config: ICIConfig | None = None,
        network: Network | None = None,
        coordinates: list[Coordinate] | None = None,
        genesis: Block | None = None,
    ) -> None:
        super().__init__(network or Network())
        self.config = config or ICIConfig()
        self.config.validate_for(n_nodes)
        self.coordinates = coordinates
        self.placement = _make_placement(self.config)
        # Failure-domain awareness (opt-in; see repro.net.domains).  None
        # keeps the configured placement policy and every domain-oblivious
        # code path byte-identical.  Set before install_topology(): the
        # topology hook is also the domain map's churn-sync point.
        self.domains = None

        if genesis is None:
            genesis = make_genesis([KeyPair.from_seed(0).address])
        self.ledger = Ledger(genesis=genesis, limits=self.config.limits)

        # --- population -------------------------------------------------
        self.nodes: dict[int, ClusterNode] = {}
        node_ids = list(range(n_nodes))
        algorithm = _make_clustering(self.config, coordinates)
        self.clusters: ClusterTable = algorithm.form_clusters(
            node_ids, self.config.n_clusters
        )
        for node_id in node_ids:
            node = ClusterNode(
                node_id,
                self.network,
                cluster_id=self.clusters.cluster_of(node_id),
                limits=self.config.limits,
            )
            node.attach(self)
            self.nodes[node_id] = node
        self.public_keys = {
            node_id: node.keypair.public_key
            for node_id, node in self.nodes.items()
        }
        self.install_topology()

        # --- protocol engines --------------------------------------------
        # Fault injection: node id -> behaviour ("vote_reject" lies about
        # validity; "silent" withholds every protocol vote).
        self.byzantine: dict[int, str] = {}
        # The deployment-level tracker: the engines' fault-recovery
        # watches (body delivery, finality, bootstrap) all run on it.
        self.reliability = RequestTracker(self.network.clock, self.router)
        self.dissemination = self.install_engine(DisseminationEngine(self))
        self.verification = self.install_engine(IntraClusterEngine(self))
        # Before the engines whose fetch flows register with it.
        self.transfer = self.install_engine(TransferEngine(self))
        self.query = self.install_engine(QueryEngine(self))
        self.sync = self.install_engine(SyncEngine(self))
        # Dormant until .start(): registers handlers only, schedules
        # nothing, so fault-free metrics stay byte-identical to baseline.
        self.repair = self.install_engine(AntiEntropyEngine(self))
        # Same discipline: registers the DHT message kinds always (so
        # router coverage and report schemas are uniform), but stays
        # inert until enable_dht().
        self.dht = self.install_engine(DHTEngine(self))

        if self.config.parity_group_size:
            self.parity: ParityManager | None = ParityManager(
                self.config.parity_group_size
            )
        else:
            self.parity = None

        # Heat-aware adaptive replication (opt-in; see repro.storage.heat).
        # None keeps every engine on the fixed-r code path untouched.
        self.heat = None
        self.replication_planner = None
        # Coded archival tier (opt-in; see repro.storage.coded).
        self.archival = None
        self._seed_genesis(genesis)

    # ------------------------------------------------------------ plumbing
    def install_topology(self) -> None:
        """(Re)build the clustered overlay after any membership change."""
        if self.domains is not None:
            # Every membership change funnels through here (joins,
            # leaves, crash cleanup, re-clustering), so syncing the
            # domain map at this choke point keeps labels current
            # through churn without per-call bookkeeping.
            self.domains.sync(self.nodes.keys())
        self.network.set_topology(
            clustered_topology(
                [view.members for view in self.clusters.views()],
                seed=self.config.seed,
            )
        )

    def _seed_genesis(self, genesis: Block) -> None:
        """Give every node the genesis header; holders get the body."""
        for node in self.nodes.values():
            node.store.add_header(genesis.header)
            node.finalize(genesis.block_hash)
        self.dissemination.block_valid[genesis.block_hash] = True
        for view in self.clusters.views():
            for holder in self.placement.holders(
                genesis.header, view.members, self.config.replication
            ):
                self.nodes[holder].assign_body(genesis)

    def enable_adaptive_replication(self):
        """Install heat tracking + the replication planner (idempotent).

        Adds a :class:`~repro.storage.heat.HeatTracker` as a router
        observer and hangs a :class:`~repro.storage.heat.
        ReplicationPlanner` off the deployment; the anti-entropy engine
        and the query engine pick the planner up through
        ``deployment.replication_planner`` and switch to per-block
        targets.  Returns the planner.
        """
        if self.replication_planner is not None:
            return self.replication_planner
        tracker = HeatTracker(self.network.clock)
        self.router.add_observer(tracker)
        planner = ReplicationPlanner(self, tracker)
        self.heat = tracker
        self.replication_planner = planner
        return planner

    def enable_domain_awareness(self, zones: int = 2):
        """Install the failure-domain map + spread placement (idempotent).

        Hangs a :class:`~repro.net.domains.FailureDomainMap` off the
        deployment and swaps the placement policy for
        :class:`~repro.storage.placement.DomainSpreadPlacement`, so the
        ``r`` replicas — and, through the archival tier's use of
        ``deployment.placement``, the ``k+m`` coded chunks — land on
        distinct failure domains whenever the cluster spans enough of
        them.  The repair engine picks the map up through
        ``deployment.domains`` and re-replicates/sheds toward domain
        diversity, not just copy count.  Returns the map.

        Opt-in like every other subsystem: never calling this keeps the
        configured placement policy and byte-identical behaviour.
        """
        if self.domains is not None:
            return self.domains
        domains = FailureDomainMap(zones)
        domains.sync(self.nodes.keys())
        self.domains = domains
        self.placement = DomainSpreadPlacement(domains)
        return domains

    def enable_dht(self):
        """Activate the Kademlia-style DHT overlay (idempotent).

        The always-installed :class:`~repro.dht.engine.DHTEngine` wakes
        up: routing tables are seeded and then maintained from observed
        router traffic, provider records are published on every cluster
        finalization, the query engine resolves holders via FIND_VALUE
        before its placement plan, and the anti-entropy engine exchanges
        digests with DHT-nearest peers only.  Joins take the placement
        path, as they do with the overlay off.  Returns the engine.
        """
        return self.dht.enable()

    def enable_archival_tier(self):
        """Install the coded archival tier (idempotent; implies adaptive).

        The tier consumes the planner's cold classification, so adaptive
        replication is enabled first when it isn't already.  The
        anti-entropy engine picks the tier up through
        ``deployment.archival``: cold blocks transition to k-of-n coded
        chunks, and the query engine reconstructs them on demand when
        its replica failover plan is exhausted.  Returns the tier.
        """
        if self.archival is not None:
            return self.archival
        planner = self.enable_adaptive_replication()
        tier = ArchivalTier(self, planner)
        self.archival = tier
        return tier

    def holders_in_cluster(
        self, header: BlockHeader, cluster_id: int
    ) -> tuple[int, ...]:
        """Placement-assigned holders of a block within one cluster."""
        return self.placement.holders(
            header,
            self.clusters.members_of(cluster_id),
            self.config.replication,
        )

    def aggregator_for(self, header: BlockHeader, cluster_id: int) -> int:
        """The commit aggregator: the block's primary holder."""
        return self.holders_in_cluster(header, cluster_id)[0]

    # ------------------------------------------------- delegating facades
    def disseminate(self, block: Block, proposer_id: int) -> None:
        """Inject a sealed block at its proposer (see interface docs)."""
        self.dissemination.disseminate(block, proposer_id)

    def submit_transaction(self, tx, origin_id: int) -> bool:
        """Inject a wallet transaction at a node; it relays by gossip.

        Returns ``False`` on a duplicate; raises ``ValidationError`` when
        the transaction is invalid against the canonical chain state.
        """
        return self.dissemination.submit_transaction(tx, origin_id)

    def retrieve_block(
        self, requester_id: int, block_hash: Hash32
    ) -> QueryRecord:
        """Fetch a block body from in-cluster holders (see interface docs)."""
        return self.query.retrieve_block(requester_id, block_hash)

    def join_new_node(self) -> BootstrapReport:
        """Admit a brand-new node (see interface and bootstrap module docs)."""
        return start_bootstrap(self)

    def leave_node(self, node_id: int):
        """Gracefully retire a member (see :mod:`repro.core.departure`)."""
        return start_departure(self, node_id)

    def repair_after_crash(self, node_id: int):
        """Re-replicate a crashed member's blocks from survivors."""
        return start_crash_repair(self, node_id)

    def attach_light_client(self):
        """Register a headers-only SPV client (see :mod:`repro.protocols.spv`)."""
        return attach_light_client(self)

    def spv_check(self, light_id: int, block_hash: Hash32, txid: Hash32):
        """Ask the cluster to prove a payment to a light client."""
        return start_spv_check(self, light_id, block_hash, txid)

    def mempool_of(self, node_id: int):
        """A node's mempool (for proposers building from relayed txs)."""
        mempool = self.nodes[node_id].mempool
        assert mempool is not None
        return mempool

    # -------------------------------------------- engine-state convenience
    @property
    def reorg_count(self) -> int:
        """Canonical-chain reorganizations so far."""
        return self.dissemination.reorg_count

    @property
    def compact_stats(self):
        """Compact-block reconstruction counters."""
        return self.dissemination.compact_stats

    @property
    def light_clients(self) -> dict:
        """Attached SPV clients by id."""
        return self.query.light_clients

    @property
    def metrics_spv(self) -> list:
        """Every SPV check's lifecycle record."""
        return self.query.spv_log

    @property
    def explorer(self):
        """Lazy chain explorer (see :mod:`repro.core.explorer`)."""
        if not hasattr(self, "_explorer"):
            self._explorer = ChainExplorer(self)
        return self._explorer

    # ------------------------------------------------------------- reports
    def total_finalized_blocks(self) -> int:
        """Blocks every cluster has finalized (excludes genesis)."""
        per_cluster: dict[int, set[Hash32]] = {}
        for (block_hash, cluster_id) in self.metrics.cluster_finalized_at:
            per_cluster.setdefault(cluster_id, set()).add(block_hash)
        if not per_cluster:
            return 0
        if len(per_cluster) < self.clusters.cluster_count:
            return 0
        common = set.intersection(*per_cluster.values())
        return len(common)

    def cluster_holds_full_ledger(self, cluster_id: int) -> bool:
        """Intra-cluster integrity: every active body held or decodable.

        The paper's guarantee, defined once in :mod:`repro.core.audit`.
        """
        return cluster_integrity(self, cluster_id)
