"""What a (node, block) pair may cost, counted — no wall clock involved.

A member retains, per block, its header, its verdict and the few bits of
round state a late vote can still read (DESIGN.md, "What a (node, block)
pair costs").  These tests pin that budget in bytes (tracemalloc), the two
signature-path caches in hit/miss counts, and ``ensure_round``'s
placement lookups in calls.  A membership change may retain only a small
pinned budget too: the placement memo holds what live memberships use.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from functools import lru_cache

from repro.consensus import votes
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.crypto import signatures
from repro.sim.runner import ScenarioRunner
from repro.storage.placement import RendezvousPlacement
from tests.conftest import TEST_LIMITS

# Where per-pair state is allocated; "<string>" is dataclass-generated
# __init__ code, which is where a dataclass instance's fields are billed.
PAIR_SITES = (
    "/repro/consensus/", "/repro/node/clusternode.py", "/repro/core/metrics.py",
    "/repro/clustering/membership.py", "/repro/chain/chainstore.py",
    "/repro/crypto/signatures.py",
)  # fmt: skip
PAIR_BUDGET_BYTES = 1_500
MEMBERSHIP_OP_BUDGET_BYTES = 1_000
CACHES = (
    (signatures, "_verify_cached", signatures._verify_cached),
    (votes, "_attest_message", votes._attest_message),
)


def _runner(n_nodes: int, n_clusters: int) -> ScenarioRunner:
    deployment = ICIDeployment(
        n_nodes,
        config=ICIConfig(
            n_clusters=n_clusters, replication=2, limits=TEST_LIMITS
        ),
    )
    return ScenarioRunner(deployment, limits=TEST_LIMITS, seed=1)


def _live_bytes(sites=PAIR_SITES) -> int:
    gc.collect()
    return sum(
        stat.size
        for stat in tracemalloc.take_snapshot().statistics("filename")
        if stat.traceback[0].filename == "<string>"
        or any(site in stat.traceback[0].filename for site in sites)
    )


def test_live_bytes_per_node_and_block():
    """24 nodes, 16 more blocks: what the round bookkeeping keeps of them.

    At this size neither cache is full, so the slope is the objects: the
    dict-backed rounds, votes and eager tallies this replaced measure
    ~2,110 bytes per pair here, this representation ~1,160.
    """
    signatures._verify_cached.cache_clear()
    votes._attest_message.cache_clear()
    runner = _runner(24, 3)
    tracemalloc.start()
    try:
        runner.produce_blocks(8, txs_per_block=3)
        short = _live_bytes()
        runner.produce_blocks(16, txs_per_block=3)
        long_ = _live_bytes()
    finally:
        tracemalloc.stop()
    per_pair = (long_ - short) / (24 * 16)
    assert 0 < per_pair <= PAIR_BUDGET_BYTES, per_pair


def _cache_counts(monkeypatch, maxsize: int | None):
    """Hits, misses and distinct argument tuples of both caches over one
    48-node / 12-block run, at the shipped sizes or at ``maxsize``."""
    caches = {}
    for module, name, shipped in CACHES:
        size = maxsize or shipped.cache_parameters()["maxsize"]
        cached = lru_cache(maxsize=size)(shipped.__wrapped__)
        seen: set[tuple] = set()

        def recording(*args, _cached=cached, _seen=seen):
            _seen.add(args)
            return _cached(*args)

        monkeypatch.setattr(module, name, recording)
        caches[name] = (cached, seen)
    _runner(48, 6).produce_blocks(12, txs_per_block=3)
    return {
        name: (cached.cache_info().hits, cached.cache_info().misses, len(seen))
        for name, (cached, seen) in caches.items()
    }


def test_caches_never_recompute_an_entry(monkeypatch):
    """Reuse is confined to one block's round, so a cache holding a few
    rounds' worth misses exactly once per distinct entry."""
    shipped = _cache_counts(monkeypatch, None)
    small = _cache_counts(monkeypatch, 512)
    for name, (hits, misses, distinct) in shipped.items():
        assert hits > misses > 512, (name, hits, misses)
        assert misses == distinct, name  # nothing evicted and asked again
    assert small == shipped


def test_ensure_round_ranks_holders_once_per_member_and_block():
    runner = _runner(24, 3)
    deployment = runner.deployment
    holders_in_cluster = deployment.holders_in_cluster
    calls = []

    def counting(header, cluster_id):
        if sys._getframe(1).f_code.co_name == "ensure_round":
            calls.append(header.block_hash)
        return holders_in_cluster(header, cluster_id)

    deployment.holders_in_cluster = counting
    report = runner.produce_blocks(6, txs_per_block=3)
    rounds = sum(len(node.rounds) for node in deployment.nodes.values())
    assert rounds == 24 * len(report.block_hashes)
    assert len(calls) == rounds


def _membership_op(deployment, index: int, rng: random.Random) -> None:
    """perfbench ``membership_churn``'s cycle: join -> leave -> join ->
    crash + repair, victims drawn from the largest cluster."""
    if index % 2 == 0:
        deployment.join_new_node()
    else:
        largest = max(
            deployment.clusters.views(), key=lambda view: len(view.members)
        ).members
        victim = rng.choice(largest)
        if index % 4 == 1:
            deployment.leave_node(victim)
        else:
            deployment.repair_after_crash(victim)
    deployment.run()


def test_membership_churn_retains_a_flat_memo():
    """24 nodes x 25 blocks, 40 warm-up ops, then 300 more.

    The memo that kept one group per membership ever seen and a score
    for every joiner retained ~3,260 bytes per op here; retiring the
    group a change replaced and a leaver's scores leaves ~510 (reports
    and traffic counters).  After every op the memo holds at most two
    groups per cluster plus one and no score of a departed member, far
    below ``_CACHE_LIMIT``, so the cap never resets it.
    """
    runner = _runner(24, 3)
    runner.produce_blocks(24, txs_per_block=3)
    deployment = runner.deployment
    policy = deployment.placement
    assert isinstance(policy, RendezvousPlacement)
    rng = random.Random(3)
    tracemalloc.start()
    try:
        for index in range(40):
            _membership_op(deployment, index, rng)
        before = _live_bytes(["/repro/"])
        for index in range(40, 340):
            _membership_op(deployment, index, rng)
            live = {m for v in deployment.clusters.views() for m in v.members}
            assert len(policy._groups) <= 2 * 3 + 1, index
            assert all(set(row) <= live for row in policy._rows.values())
            assert policy._entries < policy._CACHE_LIMIT
        after = _live_bytes(["/repro/"])
    finally:
        tracemalloc.stop()
    per_op = (after - before) / 300
    assert per_op <= MEMBERSHIP_OP_BUDGET_BYTES, per_op
