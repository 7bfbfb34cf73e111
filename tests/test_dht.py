"""The Kademlia-style DHT overlay: engine, wiring, audits, and E20.

Covers the whole overlay loop (:mod:`repro.dht`): the dormant-engine
discipline (installed always, inert until :meth:`enable_dht`), table
seeding and observer-driven warming, iterative FIND_NODE/FIND_VALUE
lookups over the message fabric, provider-record publish/expiry/
republish on the repair sweep cadence, the query engine's
FIND_VALUE-first retrieval path, join-by-self-lookup, the repair
engine's XOR-nearest digest fanout, the chaos/endurance ``dht=True``
audits, and the E20 broadcast-vs-DHT comparison.  Every scenario is
seeded and the key signatures are pinned for determinism.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.dht.engine import ALPHA, DIGEST_FANOUT, MAX_LOOKUP_CONTACTS, DHTEngine
from repro.dht.idspace import block_key
from repro.dht.records import DEFAULT_RECORD_TTL, ProviderStore
from repro.dht.routing import DEFAULT_K
from repro.errors import ConfigurationError
from repro.net.message import MessageKind
from repro.sim.chaos import EnduranceConfig, run_endurance
from repro.sim.dht_compare import DhtCompareConfig, run_dht_compare
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS, chaos_config


def build_dht(
    n_nodes: int = 12,
    n_clusters: int = 2,
    replication: int = 2,
    n_blocks: int = 4,
    enable: bool = True,
):
    """A small deployment with the overlay (optionally) enabled."""
    ici = ICIConfig(
        n_clusters=n_clusters,
        replication=replication,
        limits=TEST_LIMITS,
    )
    deployment = ICIDeployment(n_nodes, config=ici)
    if enable:
        deployment.enable_dht()
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=11)
    report = runner.produce_blocks(n_blocks, txs_per_block=2)
    deployment.run()
    return deployment, report


# ------------------------------------------------------------ dormant engine
def test_engine_installed_but_inert_by_default():
    ici = ICIConfig(n_clusters=2, limits=TEST_LIMITS)
    deployment = ICIDeployment(8, config=ici)
    assert isinstance(deployment.dht, DHTEngine)
    assert not deployment.dht.enabled
    assert deployment.dht.tables == {}
    # All seven overlay kinds are registered even while dormant (the
    # router coverage invariant counts referenced kinds).
    for kind in (
        MessageKind.DHT_PING,
        MessageKind.DHT_PONG,
        MessageKind.DHT_FIND_NODE,
        MessageKind.DHT_NODES,
        MessageKind.DHT_FIND_VALUE,
        MessageKind.DHT_VALUE,
        MessageKind.DHT_STORE,
    ):
        assert kind in deployment.router.handled_kinds
    # A dormant overlay sends nothing.
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=11)
    runner.produce_blocks(2, txs_per_block=1)
    deployment.run()
    stats = deployment.metrics.router_stats
    assert all(not kind.startswith("dht_") for kind in stats.sends)


def test_enable_is_idempotent_and_seeds_every_table():
    deployment, _ = build_dht(n_blocks=2)
    dht = deployment.dht
    assert dht.enable() is dht
    assert sorted(dht.tables) == sorted(deployment.nodes)
    for node_id, table in dht.tables.items():
        table.check_invariants()
        assert len(table) > 0
        # Cluster co-members plus at least one foreign-cluster bridge.
        own = deployment.nodes[node_id].cluster_id
        clusters = {
            deployment.nodes[c.node_id].cluster_id
            for c in table.contacts()
            if c.node_id in deployment.nodes
        }
        assert own in clusters or len(table.contacts()) < 2
        assert len(clusters) >= 2


def test_dht_config_validation():
    """Kademlia's constants stay in range: a lookup never asks for more
    than its contact cap, and records outlive their publication."""
    assert 1 <= DEFAULT_K <= MAX_LOOKUP_CONTACTS
    assert ALPHA >= 1 and DIGEST_FANOUT >= 1
    assert DEFAULT_RECORD_TTL > 0


# ------------------------------------------------------------------ lookups
def test_value_lookup_resolves_published_holders():
    deployment, report = build_dht()
    dht = deployment.dht
    target = report.block_hashes[-1]
    results = []
    lookup = dht.lookup_value(
        0, block_key(target), on_complete=results.append
    )
    deployment.run()
    assert lookup.done
    assert results and results[0] == lookup.result
    holders = lookup.value
    assert holders, "published record must resolve"
    # The record names true live holders of the block.
    for holder in holders:
        assert deployment.nodes[holder].store.has_body(target)
    assert lookup.messages > 0
    assert lookup.hops >= 1


def test_node_lookup_returns_k_nearest_contacts():
    deployment, _ = build_dht()
    dht = deployment.dht
    target_key = dht.key_of(7)
    lookup = dht.lookup_node(0, target_key)
    deployment.run()
    assert lookup.done
    contacts = lookup.result
    assert contacts
    # Nearest-first by XOR distance, and the target itself is found.
    dists = [c.key ^ target_key for c in contacts]
    assert dists == sorted(dists)
    assert contacts[0].node_id == 7


def test_find_holders_uses_local_record_without_traffic():
    deployment, report = build_dht()
    dht = deployment.dht
    target = report.block_hashes[0]
    key = block_key(target)
    # Find a node that locally stores the provider record.
    owner = next(
        node_id
        for node_id, store in sorted(dht.providers.items())
        if store.get(key, deployment.network.now)
    )
    before = dht.stats.lookup_messages
    got = []
    dht.find_holders(owner, target, got.append)
    assert got and got[0]
    assert dht.stats.lookup_messages == before
    assert dht.stats.local_hits >= 1


def test_retrieve_block_resolves_through_overlay():
    deployment, report = build_dht()
    target = report.block_hashes[-1]
    requester = next(
        node_id
        for node_id in sorted(deployment.nodes)
        if not deployment.nodes[node_id].store.has_body(target)
    )
    hits_before = deployment.dht.stats.value_hits
    local_before = deployment.dht.stats.local_hits
    record = deployment.retrieve_block(requester, target)
    deployment.run()
    assert record.completed_at is not None
    assert not record.degraded
    assert (
        deployment.dht.stats.value_hits > hits_before
        or deployment.dht.stats.local_hits > local_before
    )


# ----------------------------------------------------------------- records
def test_finalize_publishes_each_cluster_record_once():
    deployment, report = build_dht(n_blocks=3)
    dht = deployment.dht
    clusters = deployment.clusters.cluster_count
    # One record per (cluster, active block incl. genesis), no dupes
    # despite per-member finalize events.
    active = sum(
        1 for _ in deployment.ledger.store.iter_active_headers()
    )
    assert dht.stats.records_published == clusters * active


def test_records_expire_and_republish_on_sweep():
    deployment, report = build_dht()
    dht = deployment.dht
    ttl = DEFAULT_RECORD_TTL
    key = block_key(report.block_hashes[0])
    now = deployment.network.now
    held = sum(
        1
        for store in dht.providers.values()
        if store.get(key, now)
    )
    assert held > 0
    # Let every record lapse, then sweep: expiry drains, republish
    # refills (every record is long past its republish interval).
    deployment.network.clock.run_for(2 * ttl)
    later = deployment.network.now
    assert all(
        not store.get(key, later) for store in dht.providers.values()
    )
    dht.on_sweep()
    deployment.run()
    assert dht.stats.records_expired > 0
    refreshed = sum(
        1
        for store in dht.providers.values()
        if store.get(key, deployment.network.now)
    )
    assert refreshed > 0


def test_provider_store_merges_max_expiry():
    store = ProviderStore()
    store.put(1, [4, 5], now=0.0, ttl=10.0)
    store.put(1, [5, 6], now=5.0, ttl=10.0)
    assert store.get(1, 11.0) == (5, 6)
    assert store.get(1, 9.0) == (4, 5, 6)
    assert store.expire(20.0) == 3
    assert store.get(1, 0.0) == ()


# ------------------------------------------------------------------- joins
def test_join_bootstraps_by_self_lookup():
    deployment, _ = build_dht()
    dht = deployment.dht
    joins_before = dht.stats.joins
    report = deployment.join_new_node()
    deployment.run()
    assert report.complete
    assert dht.stats.joins == joins_before + 1
    table = dht.tables[report.node_id]
    table.check_invariants()
    # The self-lookup converged: the joiner knows more than its seed
    # contact, and its peers learned the joiner from its probes.
    assert len(table) > 1
    known_by = sum(
        1
        for node_id, other in dht.tables.items()
        if node_id != report.node_id and report.node_id in other
    )
    assert known_by > 0


# ----------------------------------------------------------- digest routing
def test_digest_peers_picks_xor_nearest_subset():
    deployment, _ = build_dht()
    dht = deployment.dht
    candidates = [n for n in sorted(deployment.nodes) if n != 0]
    picked = dht.digest_peers(0, candidates)
    assert len(picked) == DIGEST_FANOUT
    own = dht.key_of(0)
    cutoff = max(dht.key_of(p) ^ own for p in picked)
    for other in set(candidates) - set(picked):
        assert dht.key_of(other) ^ own > cutoff
    # Small candidate lists pass through whole.
    assert dht.digest_peers(0, candidates[:2]) == candidates[:2]


def test_repair_sweep_converges_with_dht_fanout():
    deployment, report = build_dht(n_nodes=14, n_clusters=2)
    victim_block = report.block_hashes[0]
    holders = [
        n
        for n in sorted(deployment.nodes)
        if deployment.nodes[n].store.has_body(victim_block)
    ]
    lost = holders[0]
    deployment.nodes[lost].unassign_body(victim_block)
    repair = deployment.repair
    repair.start(cadence=2.0)
    deployment.network.clock.run_for(10.0)
    repair.stop()
    deployment.run()
    assert repair.stats.digests_requested > 0
    assert deployment.nodes[lost].store.has_body(victim_block)


# ------------------------------------------------------------ chaos / E20
def test_chaos_dht_audit_and_determinism():
    config = chaos_config(seed=7, dht=True, drop_rate=0.1)
    first = run_endurance(config)
    assert first.integrity_restored
    assert first.dht["audit_lookups_ok"] == first.dht["audit_lookups"]
    assert first.dht["stale_contacts"] == 0
    assert first.dht["empty_tables"] == 0
    assert "dht" in first.signature()
    second = run_endurance(config)
    assert first.signature() == second.signature()


def test_chaos_without_dht_signature_has_no_dht_key():
    outcome = run_endurance(chaos_config(seed=7, drop_rate=0.1))
    assert outcome.dht == {}
    assert "dht" not in outcome.signature()


def test_endurance_dht_audit():
    outcome = run_endurance(
        EnduranceConfig(seed=3, n_blocks=6, dht=True)
    )
    assert outcome.integrity_restored
    assert (
        outcome.dht["audit_lookups_ok"] == outcome.dht["audit_lookups"]
    )
    assert "dht" in outcome.signature()


#: sha256 of the canonical-JSON signature of the default E20 run.
E20_GOLDEN_SHA = (
    "65b2806513abc6aedc29e3c57d1df46ab9745e3eb588515be00bfe5ec7fdf3a2"
)


def test_dht_compare_sublinear_and_deterministic():
    config = DhtCompareConfig(
        network_sizes=(12, 24), n_blocks=3, lookups=6
    )
    outcome = run_dht_compare(config, limits=TEST_LIMITS)
    assert outcome.lookups_ok
    assert outcome.sublinear
    assert outcome.chaos_lookups_ok
    assert outcome.chaos_integrity
    again = run_dht_compare(config, limits=TEST_LIMITS)
    assert outcome.signature() == again.signature()


def test_e20_golden_signature():
    """The default E20 run, pinned like E18/E19/E21: its chaos leg is
    the endurance storm under the chaos preset."""
    signature = run_dht_compare().signature()
    blob = json.dumps(signature, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == E20_GOLDEN_SHA, signature


def test_dht_compare_config_validation():
    with pytest.raises(ConfigurationError):
        DhtCompareConfig(network_sizes=(12,))
    with pytest.raises(ConfigurationError):
        DhtCompareConfig(network_sizes=(24, 12))
    with pytest.raises(ConfigurationError):
        DhtCompareConfig(network_sizes=(6, 12))
    with pytest.raises(ConfigurationError):
        DhtCompareConfig(lookups=0)


# ---------------------------------------------------------------- reporting
def test_chaos_summary_renders_dht_section():
    from repro.analysis.report import render_endurance_summary

    outcome = run_endurance(chaos_config(seed=7, dht=True, drop_rate=0.1))
    summary = render_endurance_summary(outcome)
    assert "## dht" in summary
    assert "| audit_lookups |" in summary
    plain = render_endurance_summary(
        run_endurance(chaos_config(seed=7, drop_rate=0.1))
    )
    assert "## dht" not in plain


def test_router_section_lists_dormant_kinds_with_zero_counts():
    from repro.analysis.report import render_deployment_report

    deployment, _ = build_dht(enable=False, n_blocks=2)
    report = render_deployment_report(deployment)
    assert "| dht_find_value | 0 |" in report
    assert "| dht_store | 0 |" in report


def test_cli_chaos_dht_flag(capsys):
    from repro.cli import main

    code = main(
        ["chaos", "--dht", "--drop-rate", "0.1", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "## dht" in out
