"""Unit + property tests for peer-graph topologies."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.topology import (
    clustered_topology,
    full_mesh,
    is_connected,
    random_regular,
    ring,
)


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
        topology = clustered_topology(clusters, inter_cluster_links=2, seed=0)
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
        "clusters, links, expected",
        [
            (
                _TWELVE_BY_EIGHT,
                2,
                "ac61eb9224485c9b037d07dc917dd3ffa77d905d0260898051c8a3a029f769cf",
            ),
            (
                [_TWELVE_BY_EIGHT[0] + [96], *_TWELVE_BY_EIGHT[1:]],
                2,
                "f37d12a94af081adb3b83c26dc4e22a188b063ef2abf40718f2c7cce2dc0f4cb",
            ),
            (
                [[0, 1, 2], list(range(3, 11)), list(range(11, 20))],
                3,
                "15644ca49f2fd6163edadf37d219684579de6566081266eef5c2ddbd8713ae52",
            ),
        ],
        ids=["12x8", "12x8-plus-joiner", "unequal-3-links"],
    )
    def test_output_pinned(self, clusters, links, expected):
        for groups in (clusters, [tuple(c) for c in clusters]):
            topology = clustered_topology(
                groups, inter_cluster_links=links, seed=0
            )
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
