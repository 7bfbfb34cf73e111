"""The Kademlia-style DHT overlay: engine and wiring.

Covers the overlay loop :mod:`repro.dht` still runs: the dormant-engine
discipline (installed always, inert until :meth:`enable_dht`), table
seeding and observer-driven warming, iterative FIND_NODE/FIND_VALUE
lookups over the message fabric, provider-record publish/expiry/
republish on the repair sweep cadence, the query engine's
FIND_VALUE-first retrieval path, joins taking the placement path, and
the repair engine's XOR-nearest digest fanout.  The storm has no DHT
feature: a member names a block's holders from its cluster table.
"""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.dht.engine import ALPHA, DIGEST_FANOUT, MAX_LOOKUP_CONTACTS, DHTEngine
from repro.dht.idspace import block_key
from repro.dht.records import DEFAULT_RECORD_TTL, ProviderStore
from repro.dht.routing import DEFAULT_K
from repro.net.message import MessageKind
from repro.sim.chaos import run_endurance
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
    # All five overlay kinds are registered even while dormant (the
    # router coverage invariant counts referenced kinds).
    for kind in (
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
    now = deployment.network.now
    headers = list(deployment.ledger.store.iter_active_headers())
    # Every (cluster, active block incl. genesis) record is stored: some
    # provider store names a member of that cluster as a holder.
    for header in headers:
        key = block_key(header.block_hash)
        named = {
            holder
            for store in dht.providers.values()
            for holder in store.get(key, now)
        }
        for view in deployment.clusters.views():
            assert named & set(view.members)
    # One publish walk per record, no dupes despite per-member finalize
    # events: no read ran, so every completed lookup is a publish.
    clusters = deployment.clusters.cluster_count
    assert dht.stats.lookups_completed == clusters * len(headers)


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
    # Lapsed entries decay in place until a sweep drops them.
    assert any(key in store.records for store in dht.providers.values())
    dht.on_sweep()
    assert all(
        expires > later
        for store in dht.providers.values()
        for record in store.records.values()
        for expires in record.values()
    )
    deployment.run()
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
def test_join_with_dht_on_takes_the_placement_path():
    deployment, report = build_dht()
    dht = deployment.dht
    target = report.block_hashes[-1]
    sends = dict(deployment.metrics.router_stats.sends)
    joined = deployment.join_new_node()
    deployment.run()
    assert joined.complete
    # The join sent no overlay message and opened no routing table.
    after = deployment.metrics.router_stats.sends
    assert all(
        after[kind] == sends.get(kind)
        for kind in after
        if kind.startswith("dht_")
    )
    assert joined.node_id not in dht.tables
    # The joiner reads like any member: its empty table misses, and the
    # placement plan serves the read.
    misses = dht.stats.value_misses
    record = deployment.retrieve_block(joined.node_id, target)
    deployment.run()
    assert record.completed_at is not None and not record.degraded
    node = deployment.nodes[joined.node_id]
    assert node.store.has_body(target) or dht.stats.value_misses > misses


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


# -------------------------------------------------------------- the storm
def test_chaos_without_dht_signature_has_no_dht_key():
    outcome = run_endurance(chaos_config(seed=7, drop_rate=0.1))
    assert "dht" not in outcome.signature()


# ---------------------------------------------------------------- reporting
def test_router_section_lists_dormant_kinds_with_zero_counts():
    from repro.analysis.report import render_deployment_report

    deployment, _ = build_dht(enable=False, n_blocks=2)
    report = render_deployment_report(deployment)
    assert "| dht_find_value | 0 |" in report
    assert "| dht_store | 0 |" in report


def test_cli_chaos_dht_flag(capsys):
    """The storm has no DHT feature: ``--dht`` is an unknown flag."""
    from repro.cli import main

    with pytest.raises(SystemExit) as refused:
        main(["chaos", "--dht", "--drop-rate", "0.1", "--seed", "7"])
    assert refused.value.code == 2
    assert "--dht" in capsys.readouterr().err
