"""Property-based tests (hypothesis) for the DHT overlay's routing core.

Three batteries over :mod:`repro.dht`:

* **id space** — the XOR metric's identity/symmetry/unidirectionality
  and the bucket-index band structure every k-bucket decision rests on;
* **k-buckets** — LRU/eviction invariants of :class:`RoutingTable`
  under arbitrary interleavings of observations, evictions, and full
  buckets (``check_invariants`` after every step);
* **self-lookup convergence** — on random topologies where every node
  knows only a bounded random sample of its peers, the iterative
  closest-first search (the pure-data model of the engine's FIND_NODE
  walk) terminates and lands on the true ``k`` nearest keys.

``derandomize=True`` keeps CI deterministic; a bounded ``ci`` profile
is registered for the workflow's smoke step (``HYPOTHESIS_PROFILE=ci``),
matching ``tests/test_coded_properties.py``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.idspace import (
    ID_BITS,
    block_key,
    bucket_index,
    distance,
    node_key,
    sort_by_distance,
)
from repro.dht.records import ProviderStore
from repro.dht.routing import Contact, KBucket, RoutingTable

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

keys = st.integers(min_value=0, max_value=(1 << ID_BITS) - 1)


# ----------------------------------------------------------------- id space
@SETTINGS
@given(keys, keys, keys)
def test_xor_metric_axioms(a, b, c):
    assert distance(a, a) == 0
    assert distance(a, b) == distance(b, a)
    if a != b:
        assert distance(a, b) > 0
    # XOR's defining relation: two legs compose to the third exactly.
    assert distance(a, b) ^ distance(b, c) == distance(a, c)


@SETTINGS
@given(keys, keys)
def test_xor_unidirectionality(target, d):
    # For any target and distance there is exactly one key at that
    # distance — the property that makes closest-first search converge.
    assert distance(target ^ d, target) == d


@SETTINGS
@given(keys, keys)
def test_bucket_index_bands(own, other):
    if own == other:
        with pytest.raises(ValueError):
            bucket_index(own, other)
        return
    index = bucket_index(own, other)
    assert 0 <= index < ID_BITS
    # The band property: the index is the distance's highest set bit,
    # so everything in bucket i is nearer than anything in bucket i+1.
    assert (1 << index) <= distance(own, other) < (1 << (index + 1))


@SETTINGS
@given(st.lists(keys, max_size=32), keys)
def test_sort_by_distance_orders(candidates, target):
    ordered = sort_by_distance(candidates, target)
    assert sorted(ordered) == sorted(candidates)
    dists = [distance(key, target) for key in ordered]
    assert dists == sorted(dists)


@SETTINGS
@given(st.integers(min_value=0, max_value=1 << 40))
def test_key_derivations_disjoint(n):
    # Node and block keys live in domain-separated halves of the same
    # id space: the same preimage never collides across domains.
    address = f"node-{n}".encode()
    assert node_key(address) != block_key(address)
    assert 0 <= node_key(address) < (1 << ID_BITS)


# ---------------------------------------------------------------- k-buckets
contact_ids = st.integers(min_value=0, max_value=199)


def _contact(node_id: int) -> Contact:
    return Contact(
        node_id=node_id, key=node_key(f"node-{node_id}".encode())
    )


@SETTINGS
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(
        st.tuples(st.booleans(), contact_ids), min_size=1, max_size=120
    ),
)
def test_routing_table_invariants_under_churn(k, ops):
    # Arbitrary interleavings of observe/evict keep every structural
    # invariant: bounded buckets, correct band filing, no duplicates,
    # never the owner.
    owner = _contact(1000)
    table = RoutingTable(owner.node_id, owner.key, k=k)
    for observe, node_id in ops:
        if observe:
            stale = table.update(_contact(node_id))
            if stale is not None:
                # A full band rejected the newcomer and nominated its
                # least-recently-seen head for a liveness probe.
                assert stale.node_id in table
                assert node_id == owner.node_id or node_id not in table
        else:
            table.remove(node_id)
        table.check_invariants()
    assert len(table) <= ID_BITS * k


@SETTINGS
@given(st.lists(contact_ids, min_size=1, max_size=60))
def test_kbucket_lru_discipline(observations):
    k = 4
    bucket = KBucket(k)
    for node_id in observations:
        contact = Contact(node_id=node_id, key=node_id)
        accepted = bucket.touch(contact)
        if accepted:
            # Most recently seen is always at the tail.
            assert bucket.entries[-1].node_id == node_id
        else:
            # Rejection happens only when full of *other* contacts —
            # Kademlia keeps the old, drops the new.
            assert bucket.full
            assert all(
                entry.node_id != node_id for entry in bucket.entries
            )
        assert len(bucket) <= k
    # Entries are unique and ordered oldest-first.
    ids = [entry.node_id for entry in bucket.entries]
    assert len(ids) == len(set(ids))


@SETTINGS
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.sampled_from(["tail", "tail", "head", "evict-head"]),
        ),
        min_size=1,
        max_size=120,
    ),
)
def test_routing_table_matches_list_lru_model(k, ops):
    # The table against the textbook list model (scan, delete, append),
    # with the two cases an O(1) bucket could get wrong drawn often:
    # re-touching the most-recent tail, and touching / evicting the head
    # of a bucket that is full.  "tail"/"head" pick the fullest band.
    owner = _contact(1000)
    table = RoutingTable(owner.node_id, owner.key, k=k)
    model: dict[int, list[int]] = {}

    def fullest() -> list[int]:
        return max(model.values(), key=len, default=[])

    for op in ops:
        if op == "evict-head":
            band = fullest()
            if band:
                assert table.remove(band.pop(0))
            else:
                assert not table.remove(0)
        else:
            if op in ("tail", "head"):
                band = fullest()
                if not band:
                    continue
                op = band[-1] if op == "tail" else band[0]
            contact = _contact(op)
            band = model.setdefault(
                bucket_index(owner.key, contact.key), []
            )
            stale = table.update(contact)
            if op in band:
                band.remove(op)
                band.append(op)
                assert stale is None
            elif len(band) < k:
                band.append(op)
                assert stale is None
            else:
                assert stale == _contact(band[0])
        table.check_invariants()
        assert [c.node_id for c in table.contacts()] == [
            node_id for index in sorted(model) for node_id in model[index]
        ]
        for index, band in model.items():
            bucket = table.buckets[index]
            assert len(bucket) == len(band)
            assert bucket.full == (len(band) >= k)
            assert bucket.head == (_contact(band[0]) if band else None)


@SETTINGS
@given(st.lists(contact_ids, min_size=2, max_size=60, unique=True))
def test_update_full_bucket_keeps_head_until_removed(node_ids):
    # The probe-and-evict cycle: a full bucket's head survives until an
    # explicit remove, after which the once-rejected newcomer gets in.
    owner = _contact(1000)
    table = RoutingTable(owner.node_id, owner.key, k=1)
    rejected = None
    for node_id in node_ids:
        stale = table.update(_contact(node_id))
        if stale is not None:
            rejected = _contact(node_id)
            assert table.remove(stale.node_id)
            assert table.update(rejected) is None
            assert rejected.node_id in table
        table.check_invariants()


# ------------------------------------------------------------- convergence
@SETTINGS
@given(
    st.integers(min_value=10, max_value=64),
    st.randoms(use_true_random=False),
)
def test_self_lookup_converges_on_random_topologies(n_nodes, rng):
    # The pure-data model of the engine's iterative FIND_NODE: every
    # node observes every peer in a random order, so its table reaches
    # Kademlia's steady state — the near neighbourhood fully known
    # (near buckets hold few ids, never fill), far space capped at k
    # per band.  Querying ever-closer contacts and folding their
    # k-closest answers in must terminate at the true k nearest keys
    # to the target, never revisiting a peer.
    k = 4
    ids = list(range(n_nodes))
    contact_by_id = {i: _contact(i) for i in ids}
    tables: dict[int, RoutingTable] = {}
    for i in ids:
        own = contact_by_id[i]
        table = RoutingTable(own.node_id, own.key, k=k)
        order = ids[:]
        rng.shuffle(order)
        for peer in order:
            if peer != i:
                table.update(contact_by_id[peer])
        tables[i] = table

    requester = rng.choice(ids)
    target = contact_by_id[rng.choice(ids)].key
    known = {
        c.node_id: c.key for c in tables[requester].closest(target, k)
    }
    queried: set[int] = set()
    steps = 0
    while True:
        candidates = [
            nid
            for nid, key in sorted(
                known.items(), key=lambda item: distance(item[1], target)
            )
            if nid not in queried
        ][:k]
        if not candidates:
            break
        for nid in candidates:
            queried.add(nid)
            for c in tables[nid].closest(target, k):
                if c.node_id != requester:
                    known.setdefault(c.node_id, c.key)
        steps += 1
        assert steps <= n_nodes, "lookup failed to terminate"

    # The search found the true k nearest among all reachable keys.
    universe = [
        contact_by_id[i].key for i in ids if i != requester
    ]
    truth = set(sort_by_distance(universe, target)[:k])
    found = set(
        sort_by_distance(list(known.values()), target)[:k]
    )
    assert found == truth


# ----------------------------------------------------------------- records
@SETTINGS
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.lists(
                st.integers(min_value=0, max_value=30),
                min_size=1,
                max_size=4,
            ),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=40,
    )
)
def test_provider_store_expiry_monotone(puts):
    store = ProviderStore()
    ttl = 10.0
    now = 0.0
    for key, holders, at in puts:
        now = max(now, at)
        store.put(key, holders, now, ttl)
        # Unexpired records always include the just-put holders.
        assert set(holders) <= set(store.get(key, now))
    # Advancing past every TTL drains the store completely.
    dropped = store.expire(now + ttl + 1.0)
    assert dropped >= 0
    for key, _, _ in puts:
        assert store.get(key, now + ttl + 1.0) == ()
