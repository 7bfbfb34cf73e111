"""Broadcast vs DHT holder lookup across network sizes (E20).

The DHT overlay's acceptance experiment (:mod:`repro.dht`): for each
network size, drive one seeded deployment with the overlay enabled
through an identical block stream, then resolve the *same* seeded
(requester, block) sequence two ways —

* **iterative FIND_VALUE** (:meth:`~repro.dht.engine.DHTEngine.lookup_value`):
  α-parallel probes walking XOR-closer neighbourhoods, terminating when
  the ``k`` nearest known contacts have all answered;
* **flood** (:meth:`~repro.dht.engine.DHTEngine.flood_resolve`): the
  pre-DHT baseline, one request to every live peer — linear in network
  size by construction

— and compare messages per lookup and hop counts.  The acceptance claim
is the Kademlia one: lookup cost stays ~``O(log N)`` while the flood
grows ~``O(N)``, so the flood/DHT cost ratio must widen monotonically
with ``N``.  Each size also admits one joiner and records the
self-lookup's message cost against the modelled legacy full-table
exchange (one membership entry per existing node).

A final chaos leg re-runs the largest size through
:func:`repro.sim.chaos.run_endurance` under its ``CHAOS_PRESET`` (no
churn, no partition) with ``dht=True`` and the acceptance weather (10%
drop + a crash), and pins that every audit lookup still succeeds.

Everything is seeded; the outcome's :meth:`signature` is a determinism
fingerprint the test suite pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.dht.idspace import block_key
from repro.errors import ConfigurationError
from repro.sim.chaos import CHAOS_PRESET, EnduranceConfig, run_endurance
from repro.sim.runner import ScenarioRunner


#: The chaos leg's weather (the acceptance criterion's 10% drop).
CHAOS_DROP_RATE = 0.10
CHAOS_CRASH_COUNT = 1
#: Nodes per cluster at every size (clusters = size // CLUSTER_SIZE).
CLUSTER_SIZE = 6


@dataclass(frozen=True)
class DhtCompareConfig:
    """One seeded broadcast-vs-DHT lookup comparison."""

    seed: int = 42
    #: Deployment sizes for the scaling sweep (ascending).
    network_sizes: tuple[int, ...] = (12, 24, 48)
    replication: int = 2
    n_blocks: int = 6
    txs_per_block: int = 2
    #: Seeded (requester, block) resolutions per size — each measured
    #: once as an iterative lookup and once as a flood.
    lookups: int = 12

    def __post_init__(self) -> None:
        if len(self.network_sizes) < 2:
            raise ConfigurationError(
                "the scaling sweep needs at least 2 network sizes"
            )
        if list(self.network_sizes) != sorted(set(self.network_sizes)):
            raise ConfigurationError(
                "network_sizes must be strictly ascending"
            )
        for size in self.network_sizes:
            if size < 2 * CLUSTER_SIZE:
                raise ConfigurationError(
                    "every size needs at least 2 clusters"
                )
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.lookups < 1:
            raise ConfigurationError("lookups must be >= 1")


@dataclass
class DhtCompareOutcome:
    """Per-size lookup bills, join costs, and the chaos-leg audit."""

    config: DhtCompareConfig
    #: One row per network size — all-integer counters:
    #: ``n_nodes, lookups, dht_messages, dht_hops, dht_hits,
    #: flood_messages, flood_hits, join_messages, legacy_join_entries``.
    sizes: list[dict[str, int]] = field(default_factory=list)
    #: The chaos leg's audit extract (``EnduranceOutcome.dht`` subset).
    chaos: dict[str, int] = field(default_factory=dict)
    chaos_integrity: bool = False
    #: The driven deployments (smallest/largest), for the bench
    #: harness's simulated metrics (not part of the signature).
    deployments: dict[int, ICIDeployment] = field(
        default_factory=dict, repr=False
    )

    @property
    def lookups_ok(self) -> bool:
        """Every lookup — iterative and flood, every size — resolved."""
        return bool(self.sizes) and all(
            row["dht_hits"] == row["lookups"]
            and row["flood_hits"] == row["lookups"]
            for row in self.sizes
        )

    @property
    def chaos_lookups_ok(self) -> bool:
        """The chaos leg's audit batch resolved every block."""
        return (
            self.chaos.get("audit_lookups", 0) > 0
            and self.chaos.get("audit_lookups_ok")
            == self.chaos.get("audit_lookups")
        )

    @property
    def sublinear(self) -> bool:
        """The Kademlia scaling claim, checked on the measured curves.

        Flood cost is linear in ``N`` by construction, so it proxies the
        broadcast baseline exactly; the DHT curve must grow strictly
        slower — the flood/DHT per-lookup cost ratio widens at every
        size step — and stay cheaper at every measured size.
        """
        if len(self.sizes) < 2:
            return False
        ratios = []
        for row in self.sizes:
            if row["dht_messages"] == 0:
                return False
            if row["dht_messages"] >= row["flood_messages"]:
                return False
            ratios.append(row["flood_messages"] / row["dht_messages"])
        return all(a < b for a, b in zip(ratios, ratios[1:]))

    def messages_per_lookup(self, row: dict[str, int], key: str) -> float:
        """Average per-lookup cost for one size row (reporting)."""
        return row[key] / row["lookups"] if row["lookups"] else 0.0

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "sizes": [dict(row) for row in self.sizes],
            "chaos": dict(self.chaos),
            "chaos_integrity": self.chaos_integrity,
            "sublinear": self.sublinear,
            "lookups_ok": self.lookups_ok,
        }


def _measure_size(
    config: DhtCompareConfig,
    n_nodes: int,
    limits: ValidationLimits,
) -> tuple[dict[str, int], ICIDeployment]:
    """Drive one size: produce, lookup both ways, admit one joiner."""
    ici = ICIConfig(
        n_clusters=n_nodes // CLUSTER_SIZE,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(n_nodes, config=ici)
    dht = deployment.enable_dht()
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    deployment.run()

    # Both arms replay the same seeded (requester, block) sequence.
    rng = random.Random(config.seed ^ 0xD47 ^ n_nodes)
    node_ids = sorted(deployment.nodes)
    pairs = [
        (rng.choice(node_ids), rng.choice(report.block_hashes))
        for _ in range(config.lookups)
    ]

    row = {
        "n_nodes": n_nodes,
        "lookups": config.lookups,
        "dht_messages": 0,
        "dht_hops": 0,
        "dht_hits": 0,
        "flood_messages": 0,
        "flood_hits": 0,
        "join_messages": 0,
        # The legacy join's membership download: one table entry per
        # existing node (what the full-table exchange would ship).
        "legacy_join_entries": n_nodes,
    }
    for requester, block_hash in pairs:
        lookup = dht.lookup_value(requester, block_key(block_hash))
        deployment.run()
        row["dht_messages"] += lookup.messages
        row["dht_hops"] += lookup.hops
        if lookup.value:
            row["dht_hits"] += 1
    for requester, block_hash in pairs:
        flood = dht.flood_resolve(requester, block_hash)
        deployment.run()
        row["flood_messages"] += flood.messages
        if flood.holders:
            row["flood_hits"] += 1

    # Join cost: the self-lookup's probes are the only lookup traffic
    # in flight, so the counter delta attributes cleanly.
    before = dht.stats.lookup_messages
    join = deployment.join_new_node()
    deployment.run()
    row["join_messages"] = dht.stats.lookup_messages - before
    assert join.complete, "clean-network join must complete"
    return row, deployment


def run_dht_compare(
    config: DhtCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
) -> DhtCompareOutcome:
    """Run the scaling sweep and the chaos leg (see module docs)."""
    config = config or DhtCompareConfig()
    outcome = DhtCompareOutcome(config=config)
    for n_nodes in config.network_sizes:
        row, deployment = _measure_size(config, n_nodes, limits)
        outcome.sizes.append(row)
        if n_nodes in (config.network_sizes[0], config.network_sizes[-1]):
            outcome.deployments[n_nodes] = deployment

    largest = config.network_sizes[-1]
    chaos = run_endurance(
        EnduranceConfig(
            **dict(
                CHAOS_PRESET,
                seed=config.seed,
                n_nodes=largest,
                n_clusters=largest // CLUSTER_SIZE,
                replication=config.replication,
                n_blocks=config.n_blocks,
                txs_per_block=config.txs_per_block,
                drop_rate=CHAOS_DROP_RATE,
                crash_count=CHAOS_CRASH_COUNT,
                dht=True,
            )
        ),
        limits=limits,
    )
    outcome.chaos = {
        key: chaos.dht[key]
        for key in (
            "audit_lookups",
            "audit_lookups_ok",
            "stale_contacts",
            "empty_tables",
            "contacts_evicted",
            "value_hits",
            "value_misses",
        )
        if key in chaos.dht
    }
    outcome.chaos_integrity = chaos.integrity_restored
    return outcome
