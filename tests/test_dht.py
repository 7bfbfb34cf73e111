"""The Kademlia-style DHT overlay: engine and wiring.

Covers the overlay loop :mod:`repro.dht` still runs: the dormant-engine
discipline (installed always, inert until :meth:`enable_dht`), table
seeding and observer-driven warming, iterative FIND_NODE/FIND_VALUE
lookups over the message fabric, provider-record publish/expiry/
republish on the repair sweep cadence, the query engine's
FIND_VALUE-first retrieval path (which keeps to the requester's
cluster), joins taking the placement path, and repair sweeps that poll
every member with the overlay on.  The storm has no DHT
feature: a member names a block's holders from its cluster table.
"""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.dht.engine import ALPHA, MAX_LOOKUP_CONTACTS, DHTEngine
from repro.dht.idspace import block_key
from repro.dht.records import DEFAULT_RECORD_TTL, ProviderStore
from repro.dht.routing import DEFAULT_K
from repro.net.message import MessageKind
from repro.sim.chaos import run_endurance
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS
from repro.sim.workload import (
    ReadWorkloadConfig,
    TransactionWorkload,
    WorkloadConfig,
    ZipfReadWorkload,
)
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
    assert ALPHA >= 1
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


def zipf_read_deployment():
    """perfbench's ``zipf_read`` shape at smoke size, seed 1: 3 clusters
    of 8, r = 3, adaptive + archival + DHT, 8 blocks, 150 Zipf reads a
    round."""
    seed = 1
    deployment = ICIDeployment(
        24,
        config=ICIConfig(n_clusters=3, replication=3, limits=BENCH_LIMITS),
    )
    deployment.enable_adaptive_replication()
    deployment.enable_archival_tier()
    deployment.enable_dht()
    report = ScenarioRunner(
        deployment,
        workload=TransactionWorkload(WorkloadConfig(seed=seed)),
        limits=BENCH_LIMITS,
        seed=seed,
    ).produce_blocks(8, txs_per_block=6)
    reads = ZipfReadWorkload(
        ReadWorkloadConfig(seed=seed ^ 0x2EAD, exponent=1.1)
    )
    return deployment, report.block_hashes, reads


class KindsByCluster:
    """Router observer: one kind's sends, split by whether the recipient
    is in the sender's cluster."""

    def __init__(self, deployment, kind: MessageKind) -> None:
        self.nodes = deployment.nodes
        self.kind = kind
        self.local = 0
        self.remote = 0
        #: sender's cluster id -> sends
        self.by_cluster: dict[int, int] = {}
        deployment.router.add_observer(self)

    def on_send(self, message) -> None:
        if message.kind is not self.kind:
            return
        cluster = self.nodes[message.sender].cluster_id
        self.by_cluster[cluster] = self.by_cluster.get(cluster, 0) + 1
        if self.nodes[message.recipient].cluster_id == cluster:
            self.local += 1
        else:
            self.remote += 1


def test_reads_stay_inside_the_requesters_cluster():
    """With every cluster holding the whole ledger, a clean-network read
    never asks a holder outside its own cluster: a provider record
    answers with the requester's cluster's entry alone."""
    deployment, block_hashes, reads = zipf_read_deployment()
    requests = KindsByCluster(deployment, MessageKind.BLOCK_REQUEST)
    records = []
    # perfbench's round: a read batch, then two anti-entropy cadences.
    for _ in range(6):
        for requester, block_hash in reads.reads(
            block_hashes, sorted(deployment.nodes), 150
        ):
            records.append(deployment.retrieve_block(requester, block_hash))
        deployment.run()
        deployment.repair.start(cadence=5.0)
        deployment.run_for(10.0)
        deployment.repair.stop()
        deployment.run()
    assert all(r.completed_at is not None for r in records)
    assert requests.local > 0
    assert requests.remote == 0, (requests.remote, requests.local)


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
    """A put replaces its own cluster's holders and never moves that
    entry's expiry back; other clusters' entries are untouched."""
    store = ProviderStore()
    store.put(1, 0, [4, 5], now=0.0, ttl=10.0)
    store.put(1, 1, [7], now=0.0, ttl=10.0)
    store.put(1, 0, [5, 6], now=5.0, ttl=10.0)
    assert store.get(1, 9.0, 0) == (5, 6)
    assert store.get(1, 9.0, 1) == (7,)
    assert store.get(1, 9.0) == (5, 6, 7)
    assert store.get(1, 11.0) == (5, 6)
    assert store.get(1, 11.0, 1) == ()
    # A shorter-lived put still replaces the holders; expiry stays 15.
    store.put(1, 0, [4], now=6.0, ttl=2.0)
    assert store.records[1][0] == 15.0
    assert store.get(1, 14.0, 0) == (4,)
    assert store.get(1, 14.0, 2) == ()
    assert store.expire(20.0) == 2
    assert store.get(1, 0.0) == ()
    assert len(store) == 0 and store.holders == {}


def dht_sends(deployment) -> dict[MessageKind, int]:
    """Messages sent so far per overlay kind."""
    sent = deployment.network.traffic.messages_by_kind
    return {
        kind: sent.get(kind, 0)
        for kind in (MessageKind.DHT_FIND_NODE, MessageKind.DHT_STORE)
    }


def sends_since(deployment, before) -> dict[MessageKind, int]:
    return {
        kind: count - before[kind]
        for kind, count in dht_sends(deployment).items()
    }


def live_plan(deployment, block_hash, cluster_id) -> tuple[int, ...]:
    """The cluster's current read plan for a block, live members only."""
    header = deployment.ledger.store.header(block_hash)
    members = deployment.clusters.members_of(cluster_id)
    planner = deployment.replication_planner
    if planner is not None and not header.is_genesis:
        plan = planner.read_plan(header, members)
    else:
        plan = deployment.placement.holders(
            header, members, deployment.config.replication
        )
    return tuple(deployment.network.live_members(sorted(plan)))


def test_store_from_a_cluster_replaces_only_its_entry():
    deployment, report = build_dht()
    dht = deployment.dht
    key = block_key(report.block_hashes[0])
    # A node holding both clusters' entries for the key.
    node_id = next(
        node_id
        for node_id, store in sorted(dht.providers.items())
        if len(store.records.get(key, ())) == 2
    )
    store = dht.providers[node_id]
    ours, theirs = sorted(store.records[key])
    kept = (store.records[key][theirs], store.holders[key][theirs])
    replaced_expiry = store.records[key][ours]
    sender = next(n for n in sorted(deployment.nodes) if n != node_id)
    deployment.nodes[sender].send(
        MessageKind.DHT_STORE,
        node_id,
        (key, ours, (sender,), DEFAULT_RECORD_TTL),
        64,
    )
    deployment.run()
    assert store.get(key, deployment.network.now, ours) == (sender,)
    assert store.records[key][ours] > replaced_expiry
    assert (store.records[key][theirs], store.holders[key][theirs]) == kept


def test_find_value_answers_only_the_asking_cluster():
    deployment, report = build_dht()
    dht = deployment.dht
    key = block_key(report.block_hashes[-1])
    nodes = deployment.nodes
    answers = []

    class Values:
        def on_send(self, message) -> None:
            if message.kind is MessageKind.DHT_VALUE:
                _request_id, _key, data, found = message.payload
                if found:
                    answers.append((message.recipient, data))

    deployment.router.add_observer(Values())
    for view in deployment.clusters.views():
        requester = max(view.members)
        lookup = dht.lookup_value(requester, key)
        deployment.run()
        assert lookup.value == live_plan(
            deployment, report.block_hashes[-1], view.cluster_id
        )
    # Every hit on the wire carries the asker's cluster's holders alone.
    assert {nodes[recipient].cluster_id for recipient, _ in answers} == {
        view.cluster_id for view in deployment.clusters.views()
    }
    for recipient, holders in answers:
        members = deployment.clusters.members_of(nodes[recipient].cluster_id)
        assert set(holders) <= set(members)


def test_quiet_sweep_sends_no_store_and_no_walk():
    """No read plan changed and no entry is past half its lifetime: the
    sweep publishes nothing."""
    deployment, _ = build_dht()
    dht = deployment.dht
    deployment.run_for(DEFAULT_RECORD_TTL / 4)
    before = dht_sends(deployment)
    published = dict(dht._published_at)
    dht.on_sweep()
    deployment.run()
    assert sends_since(deployment, before) == {
        MessageKind.DHT_FIND_NODE: 0,
        MessageKind.DHT_STORE: 0,
    }
    assert dht._published_at == published


def test_tier_change_republishes_one_record_per_cluster(monkeypatch):
    deployment, block_hashes, _ = zipf_read_deployment()
    deployment.run()
    dht = deployment.dht
    planner = deployment.replication_planner
    target = block_hashes[-1]
    assert planner.tier_of(target) == "warm"
    published = []
    publish = dht._publish

    def recorded(block_hash, cluster_id, publisher, holders):
        published.append((block_hash, cluster_id))
        publish(block_hash, cluster_id, publisher, holders)

    monkeypatch.setattr(dht, "_publish", recorded)
    # Cold: every cluster's plan shrinks from r = 3 holders to 2.
    planner.tiers[target] = "cold"
    before = dht_sends(deployment)
    dht.on_sweep()
    deployment.run()
    views = sorted(v.cluster_id for v in deployment.clusters.views())
    assert published == [(target, cluster_id) for cluster_id in views]
    for cluster_id in views:
        assert len(dht._published_at[(cluster_id, target)][1]) == 2
    # Each cluster's publisher stores at its last store set again.
    sent = sends_since(deployment, before)
    assert sent[MessageKind.DHT_FIND_NODE] == 0
    key = block_key(target)
    assert sent[MessageKind.DHT_STORE] == sum(
        len(stored[key]) for stored in dht._stored_at.values() if key in stored
    )


def test_republish_reuses_the_store_set_until_an_eviction():
    deployment, report = build_dht()
    dht = deployment.dht
    block_hash = report.block_hashes[0]
    key = block_key(block_hash)
    view = min(deployment.clusters.views(), key=lambda v: v.cluster_id)
    publisher = min(view.members)
    stored = dht._stored_at[publisher][key]
    assert stored
    # Past half the lifetime every entry is due: the second publish of
    # each key goes straight to its store set.
    deployment.run_for(DEFAULT_RECORD_TTL / 2)
    before = dht_sends(deployment)
    dht.on_sweep()
    deployment.run()
    sent = sends_since(deployment, before)
    assert sent[MessageKind.DHT_FIND_NODE] == 0
    assert sent[MessageKind.DHT_STORE] > 0
    assert dht._stored_at[publisher][key] == stored
    # Evicting one stored-at contact from the publisher's table drops
    # the set: the next publish of that key walks again.
    dht._evict(publisher, stored[0])
    assert stored[0] not in dht.tables[publisher]
    assert key not in dht._stored_at[publisher]
    deployment.run_for(DEFAULT_RECORD_TTL / 2)
    before = dht_sends(deployment)
    dht.on_sweep()
    deployment.run()
    assert sends_since(deployment, before)[MessageKind.DHT_FIND_NODE] > 0
    assert dht._stored_at[publisher][key]


def test_sweep_after_tier_change_drops_shed_holders_from_records():
    """After the sweep that sheds a replica, a FIND_VALUE names the
    cluster's current read plan, never a member that shed the block."""
    deployment, block_hashes, reads = zipf_read_deployment()
    deployment.run()
    dht = deployment.dht
    planner = deployment.replication_planner
    held = {
        (node_id, block_hash)
        for node_id, node in deployment.nodes.items()
        for block_hash in block_hashes
        if node.store.has_body(block_hash)
    }
    for _ in range(3):
        for requester, block_hash in reads.reads(
            block_hashes, sorted(deployment.nodes), 150
        ):
            deployment.retrieve_block(requester, block_hash)
        deployment.run()
        one_sweep(deployment)
        if planner.stats.replicas_shed:
            break
    nodes = deployment.nodes
    shed = {
        (node_id, block_hash)
        for node_id, block_hash in held
        if not nodes[node_id].store.has_body(block_hash)
    }
    named_shed = 0
    for view in sorted(
        deployment.clusters.views(), key=lambda v: v.cluster_id
    ):
        requester = max(view.members)
        for block_hash in block_hashes:
            plan = live_plan(deployment, block_hash, view.cluster_id)
            lookup = dht.lookup_value(requester, block_key(block_hash))
            deployment.run()
            assert lookup.value == plan
            named_shed += sum(
                1
                for node_id in view.members
                if (node_id, block_hash) in shed and node_id not in plan
            )
    # Some member shed a block it held, and no record names it.
    assert named_shed > 0


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


# ------------------------------------------------------ cluster-local repair
def one_sweep(deployment) -> None:
    repair = deployment.repair
    sweeps = repair.stats.sweeps
    repair.start(cadence=5.0)
    deployment.run_for(6.0)
    repair.stop()
    deployment.run()
    assert repair.stats.sweeps == sweeps + 1


def test_sweep_with_dht_polls_every_live_member():
    """The overlay routes no digests: a sweep polls each cluster's live
    members but its coordinator, and an intact deployment has nothing to
    re-replicate."""
    deployment, _ = build_dht(n_nodes=14, n_clusters=2)
    polls = KindsByCluster(deployment, MessageKind.REPAIR_DIGEST_REQUEST)
    one_sweep(deployment)
    network = deployment.network
    assert polls.by_cluster == {
        view.cluster_id: len(network.live_members(view.members)) - 1
        for view in deployment.clusters.views()
    }
    assert polls.remote == 0
    assert deployment.repair.stats.blocks_re_replicated == 0


def test_repair_sweep_restores_a_lost_body_with_dht_on():
    deployment, report = build_dht(n_nodes=14, n_clusters=2)
    victim_block = report.block_hashes[0]
    holders = [
        n
        for n in sorted(deployment.nodes)
        if deployment.nodes[n].store.has_body(victim_block)
    ]
    lost = holders[0]
    deployment.nodes[lost].unassign_body(victim_block)
    one_sweep(deployment)
    repair = deployment.repair
    assert repair.stats.digests_requested == len(deployment.nodes) - 2
    assert repair.stats.blocks_re_replicated == 1
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
