"""Unit + property tests for peer-graph topologies.

The derived overlay is checked against ``eager_clustered_topology`` (the
construction it replaced, kept in ``tests/conftest.py`` as the oracle);
the two overlay properties ride the workflow's fuzz smoke step
(``HYPOTHESIS_PROFILE=ci``) at a higher example count.
"""

from __future__ import annotations

import hashlib
import os
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError, UnknownNodeError
from repro.net import topology as topology_module
from repro.net.network import Network
from repro.net.topology import (
    _bridge_plan,
    clustered_topology,
    full_mesh,
    is_connected,
    random_regular,
)
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS, eager_clustered_topology, ring


class TestFullMesh:
    def test_everyone_peers_with_everyone(self):
        topology = full_mesh([0, 1, 2])
        assert topology[0] == (1, 2)
        assert topology[1] == (0, 2)
        assert topology[2] == (0, 1)

    def test_single_node(self):
        assert full_mesh([7]) == {7: ()}

    def test_connected(self):
        assert is_connected(full_mesh(list(range(6))))


class TestRing:
    def test_ring_degree_two(self):
        topology = ring([0, 1, 2, 3])
        for peers in topology.values():
            assert len(peers) == 2
        assert is_connected(topology)

    def test_two_nodes(self):
        topology = ring([0, 1])
        assert topology[0] == (1,)
        assert topology[1] == (0,)

    def test_single_node(self):
        assert ring([0]) == {0: ()}


class TestRandomRegular:
    def test_degree_bounds(self):
        topology = random_regular(list(range(30)), degree=4, seed=1)
        for peers in topology.values():
            assert 4 <= len(peers) <= 12

    def test_connected(self):
        topology = random_regular(list(range(50)), degree=3, seed=2)
        assert is_connected(topology)

    def test_small_population_falls_back_to_mesh(self):
        topology = random_regular([0, 1, 2], degree=8)
        assert topology == full_mesh([0, 1, 2])

    def test_symmetry(self):
        topology = random_regular(list(range(20)), degree=3, seed=3)
        for node, peers in topology.items():
            for peer in peers:
                assert node in topology[peer]

    def test_no_self_loops(self):
        topology = random_regular(list(range(20)), degree=3, seed=4)
        for node, peers in topology.items():
            assert node not in peers

    def test_bad_degree(self):
        with pytest.raises(ConfigurationError):
            random_regular([0, 1], degree=0)

    def test_deterministic_under_seed(self):
        a = random_regular(list(range(15)), degree=3, seed=9)
        b = random_regular(list(range(15)), degree=3, seed=9)
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=100),
    )
    def test_always_connected_property(self, n, degree, seed):
        topology = random_regular(list(range(n)), degree=degree, seed=seed)
        assert is_connected(topology)


class TestClusteredTopology:
    def test_intra_cluster_mesh(self):
        clusters = [[0, 1, 2], [3, 4, 5]]
        topology = clustered_topology(clusters, seed=0)
        assert 1 in topology[0] and 2 in topology[0]
        assert 4 in topology[3] and 5 in topology[3]

    def test_bridges_exist(self):
        clusters = [[0, 1, 2], [3, 4, 5]]
        topology = clustered_topology(clusters, seed=0)
        cross = [
            (a, b)
            for a in (0, 1, 2)
            for b in topology[a]
            if b in (3, 4, 5)
        ]
        assert cross

    def test_connected_overall(self):
        clusters = [list(range(i * 4, i * 4 + 4)) for i in range(5)]
        topology = clustered_topology(clusters, seed=1)
        assert is_connected(topology)

    def test_empty_cluster_tolerated(self):
        topology = clustered_topology([[0, 1], []], seed=0)
        assert set(topology) == {0, 1}

    # Taken at the parent of the set-arithmetic mesh / direct-draw bridge
    # rewrite: same RNG stream, same mapping, same key order.
    _TWELVE_BY_EIGHT = [list(range(i * 8, (i + 1) * 8)) for i in range(12)]

    @pytest.mark.parametrize(
        "clusters, expected",
        [
            (
                _TWELVE_BY_EIGHT,
                "ac61eb9224485c9b037d07dc917dd3ffa77d905d0260898051c8a3a029f769cf",
            ),
            (
                [_TWELVE_BY_EIGHT[0] + [96], *_TWELVE_BY_EIGHT[1:]],
                "f37d12a94af081adb3b83c26dc4e22a188b063ef2abf40718f2c7cce2dc0f4cb",
            ),
            (
                [[0, 1, 2], list(range(3, 11)), list(range(11, 20))],
                "90c897921aa4294fba0a241fb385f66195f8f5f7504dec2fbaa6b1212ab6b3d2",
            ),
        ],
        ids=["12x8", "12x8-plus-joiner", "unequal"],
    )
    def test_output_pinned(self, clusters, expected):
        for groups in (clusters, [tuple(c) for c in clusters]):
            topology = clustered_topology(groups, seed=0)
            digest = hashlib.sha256(
                repr(sorted(topology.items())).encode()
            ).hexdigest()
            assert digest == expected
            assert list(topology) == [n for c in clusters for n in c]

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=50),
    )
    def test_clustered_always_connected(self, k, size, seed):
        clusters = [
            list(range(i * size, (i + 1) * size)) for i in range(k)
        ]
        assert is_connected(clustered_topology(clusters, seed=seed))

    def test_rejects_overlapping_clusters(self):
        overlay = clustered_topology([[0, 1], [1, 2]], seed=0)
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                overlay[0]


#: The fuzz smoke step of CI (``HYPOTHESIS_PROFILE=ci``) draws more overlays.
OVERLAY_SETTINGS = settings(
    derandomize=True,
    max_examples=300 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 40,
    deadline=None,
)


@st.composite
def cluster_lists(draw):
    """Disjoint clusters of scrambled ids, some empty, as lists or tuples."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=6))
    ids = draw(st.permutations(range(sum(sizes) + 3)))
    clusters, start = [], 0
    for size in sizes:
        clusters.append(ids[start : start + size])
        start += size
    if draw(st.booleans()):
        return [tuple(members) for members in clusters]
    return [list(members) for members in clusters]


def _built(overlay) -> set[int]:
    """The nodes whose peer tuple ``overlay`` has built."""
    table = getattr(overlay, "_peers", None) or {}
    return {node for node, peers in table.items() if isinstance(peers, tuple)}


class EagerPeerMap:
    """The peer map ``Network`` kept before the overlay was derived: a
    copy of the installed topology that registry changes edit."""

    def __init__(self) -> None:
        self.peers: dict[int, tuple[int, ...]] = {}

    def register(self, node: int) -> None:
        self.peers.setdefault(node, ())

    def unregister(self, node: int) -> None:
        self.peers.pop(node, None)

    def install(self, topology) -> None:
        self.peers = dict(topology)

    def peers_of(self, node: int):
        return self.peers.get(node, UnknownNodeError)


class TestDerivedOverlay:
    @OVERLAY_SETTINGS
    @given(
        clusters=cluster_lists(),
        links=st.integers(1, 3),
        seed=st.integers(0, 1_000),
        order=st.randoms(use_true_random=False),
    )
    def test_matches_the_eager_oracle(self, clusters, links, seed, order):
        with patch.object(topology_module, "INTER_CLUSTER_LINKS", links):
            overlay = clustered_topology(clusters, seed)
            oracle = eager_clustered_topology(clusters, seed)
        nodes = list(oracle)
        order.shuffle(nodes)
        # Reads in any order, before and after the key order is asked.
        for node in nodes[: len(nodes) // 2]:
            assert overlay[node] == oracle[node]
        assert list(overlay) == list(oracle)
        assert len(overlay) == len(oracle)
        for node in nodes:
            assert node in overlay
            assert overlay[node] == oracle[node]
        assert dict(overlay) == oracle
        absent = max(nodes, default=0) + 1
        assert absent not in overlay
        with pytest.raises(KeyError):
            overlay[absent]

    @OVERLAY_SETTINGS
    @given(clusters=cluster_lists(), seed=st.integers(0, 1_000), data=st.data())
    def test_network_keeps_its_registry_contract(self, clusters, seed, data):
        """Register before and after an install, unregister then read,
        re-register: the derived overlay under ``Network`` answers as
        the eager copy did, and builds only the peers of nodes read since
        the install (so never a departed node's)."""
        # A second membership: the first member of the first non-empty
        # cluster leaves and a new id joins the last cluster.
        members = [list(group) for group in clusters]
        for group in members:
            if group:
                group.pop(0)
                break
        members[-1].append(100)
        memberships = (clusters, members)
        # Members, the three spare ids cluster_lists leaves, 100 and one
        # id no membership has.
        universe = list(range(sum(map(len, clusters)) + 3)) + [100, 101]
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ("register", "unregister", "install", "read", "read")
                    ),
                    st.sampled_from(universe),
                ),
                max_size=40,
            )
        )
        network, model = Network(), EagerPeerMap()
        installs, read = 0, set()
        for op, node in ops:
            if op == "register":
                network.register(node, object())
                model.register(node)
            elif op == "unregister":
                network.unregister(node)
                model.unregister(node)
                with pytest.raises(UnknownNodeError):
                    network.peers_of(node)
            elif op == "install":
                groups = memberships[installs % 2]
                installs += 1
                network.set_topology(clustered_topology(groups, seed=seed))
                model.install(eager_clustered_topology(groups, seed=seed))
                read = set()
            else:
                read.add(node)
                expected = model.peers_of(node)
                if expected is UnknownNodeError:
                    with pytest.raises(UnknownNodeError):
                        network.peers_of(node)
                else:
                    assert network.peers_of(node) == expected
            assert _built(network._topology) <= read

    def test_registry_edges_around_an_install(self):
        """Each registry state the Hypothesis run may not reach, once."""
        clusters = [[0, 1, 2], [3, 4, 5]]
        oracle = eager_clustered_topology(clusters)
        network = Network()
        network.register(0, object())
        network.register(9, object())  # before the install, not listed
        network.set_topology(clustered_topology(clusters))
        assert network.peers_of(0) == oracle[0]
        with pytest.raises(UnknownNodeError):
            network.peers_of(9)
        network.register(3, object())  # after the install, listed
        network.register(7, object())  # after the install, not listed
        assert network.peers_of(3) == oracle[3]
        assert network.peers_of(7) == ()
        network.unregister(3)
        with pytest.raises(UnknownNodeError):
            network.peers_of(3)
        network.register(3, object())  # back after leaving: a clean entry
        assert network.peers_of(3) == ()
        assert network.peers_of(5) == oracle[5]  # listed, never registered


def test_an_unread_membership_change_builds_no_overlay(monkeypatch):
    """200 joins and leaves on 48 nodes with no block between them: no
    peer tuple is built and no bridge plan replayed.  The next block's
    gossip then reads exactly the eager overlay's peers."""
    deployment = ICIDeployment(
        48, config=ICIConfig(n_clusters=6, replication=2, limits=TEST_LIMITS)
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=1)
    runner.produce_blocks(4, txs_per_block=3)
    _bridge_plan.cache_clear()
    rng = random.Random(5)
    for index in range(200):
        if index % 2 == 0:
            deployment.join_new_node()
        else:
            largest = max(
                deployment.clusters.views(), key=lambda view: len(view.members)
            ).members
            deployment.leave_node(rng.choice(largest))
        deployment.run()
        assert deployment.network._topology._peers is None, index
    assert _bridge_plan.cache_info().currsize == 0

    network = deployment.network
    reads = []
    peers_of = network.peers_of

    def recording(node):
        peers = peers_of(node)
        reads.append((node, peers))
        return peers

    monkeypatch.setattr(network, "peers_of", recording)
    runner.produce_blocks(1, txs_per_block=3)
    oracle = eager_clustered_topology(
        [view.members for view in deployment.clusters.views()],
        seed=deployment.config.seed,
    )
    assert reads
    assert all(peers == oracle[node] for node, peers in reads)
    info = _bridge_plan.cache_info()
    assert info.currsize == 1 <= info.maxsize
