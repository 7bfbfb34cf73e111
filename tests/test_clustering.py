"""Unit + property tests for clustering: coordinates, membership, algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.algorithms import (
    KMeansClustering,
    LatencyAwareGreedyClustering,
    RandomBalancedClustering,
    clusters_for_target_size,
)
from repro.clustering.coordinates import (
    centroid,
    distance,
    mean_pairwise_distance,
    place_regions,
    place_uniform,
)
from repro.clustering.membership import ClusterTable
from repro.errors import ClusteringError, ConfigurationError


class TestCoordinates:
    def test_place_uniform_count_and_bounds(self):
        points = place_uniform(50, extent=10.0, seed=1)
        assert len(points) == 50
        for x, y in points:
            assert 0.0 <= x <= 10.0
            assert 0.0 <= y <= 10.0

    def test_place_uniform_deterministic(self):
        assert place_uniform(10, seed=3) == place_uniform(10, seed=3)

    def test_place_regions_clumps(self):
        """Same-region nodes sit closer than the global average."""
        points = place_regions(100, n_regions=4, seed=0)
        same_region = [points[i] for i in range(0, 100, 4)]  # region 0
        assert mean_pairwise_distance(same_region) < mean_pairwise_distance(
            points
        )

    def test_distance_and_centroid(self):
        assert distance((0, 0), (3, 4)) == 5.0
        assert centroid([(0, 0), (2, 2)]) == (1.0, 1.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ConfigurationError):
            centroid([])

    def test_mean_pairwise_small_sets(self):
        assert mean_pairwise_distance([]) == 0.0
        assert mean_pairwise_distance([(1, 1)]) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            place_uniform(-1)


class TestClusterTable:
    def test_from_assignment_and_lookup(self):
        table = ClusterTable.from_assignment([[0, 1], [2, 3, 4]])
        assert table.cluster_count == 2
        assert table.node_count == 5
        assert table.cluster_of(3) == 1
        assert table.members_of(0) == (0, 1)
        assert table.peers_of(3) == (2, 4)

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ClusteringError):
            ClusterTable.from_assignment([[0, 1], [1, 2]])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusteringError):
            ClusterTable.from_assignment([[0], []])

    def test_unknown_lookups_raise(self):
        table = ClusterTable.from_assignment([[0]])
        with pytest.raises(ClusteringError):
            table.cluster_of(9)
        with pytest.raises(ClusteringError):
            table.members_of(5)

    def test_add_node_defaults_to_smallest(self):
        table = ClusterTable.from_assignment([[0, 1, 2], [3]])
        joined = table.add_node(10)
        assert joined == 1
        assert table.cluster_of(10) == 1

    def test_add_duplicate_rejected(self):
        table = ClusterTable.from_assignment([[0]])
        with pytest.raises(ClusteringError):
            table.add_node(0)

    def test_remove_node(self):
        table = ClusterTable.from_assignment([[0, 1], [2]])
        assert table.remove_node(1) == 0
        assert not table.contains(1)

    def test_remove_last_member_rejected(self):
        table = ClusterTable.from_assignment([[0, 1], [2]])
        with pytest.raises(ClusteringError):
            table.remove_node(2)

    def test_move_node(self):
        table = ClusterTable.from_assignment([[0, 1], [2]])
        table.move_node(1, 1)
        assert table.cluster_of(1) == 1
        assert table.sizes() == [1, 2]

    def test_move_would_empty_rejected(self):
        table = ClusterTable.from_assignment([[0], [1]])
        with pytest.raises(ClusteringError):
            table.move_node(0, 1)

    def test_views_and_sizes(self):
        table = ClusterTable.from_assignment([[0, 1], [2]])
        views = list(table.views())
        assert views[0].size == 2
        assert views[1].members == (2,)
        assert table.sizes() == [2, 1]

    def test_invariants_pass_after_mutations(self):
        table = ClusterTable.from_assignment([[0, 1, 2], [3, 4]])
        table.add_node(5)
        table.move_node(0, 1)
        table.remove_node(4)
        table.check_invariants()

    def test_members_of_is_one_tuple_per_cluster_until_it_changes(self):
        table = ClusterTable.from_assignment([[0, 1, 2], [3, 4]])
        steps = [
            lambda: table.add_node(5),
            lambda: table.add_node(6, 0),
            lambda: table.remove_node(1),
            lambda: table.move_node(0, 1),
            lambda: table.move_node(0, 1),  # already there: a no-op
        ]
        for step in steps:
            step()
            for cid in (0, 1):
                members = table.members_of(cid)
                assert members == tuple(table._members[cid])
                assert table.members_of(cid) is members
            table.check_invariants()
        assert table.members_of(0) == (2, 6)
        assert table.members_of(1) == (3, 4, 5, 0)

    def test_invariants_catch_a_stale_member_tuple(self):
        table = ClusterTable.from_assignment([[0, 1, 2], [3, 4]])
        table.members_of(0)
        table._members[0].append(9)  # behind the table's back
        table._cluster_of[9] = 0
        with pytest.raises(ClusteringError, match="stale"):
            table.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=30),
    )
    def test_random_mutation_sequence_keeps_invariants(self, k, size, ops):
        import random

        rng = random.Random(ops)
        table = ClusterTable.from_assignment(
            [list(range(i * size, (i + 1) * size)) for i in range(k)]
        )
        next_id = k * size
        for _ in range(ops):
            action = rng.choice(["add", "remove", "move"])
            try:
                if action == "add":
                    table.add_node(next_id)
                    next_id += 1
                elif action == "remove":
                    table.remove_node(rng.choice(table.all_nodes()))
                else:
                    table.move_node(
                        rng.choice(table.all_nodes()),
                        rng.randrange(table.cluster_count),
                    )
            except ClusteringError:
                pass  # rejected mutations must leave the table intact
            table.check_invariants()


class TestRandomBalanced:
    def test_sizes_differ_by_at_most_one(self):
        table = RandomBalancedClustering(seed=0).form_clusters(
            list(range(23)), 4
        )
        sizes = table.sizes()
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_deterministic(self):
        a = RandomBalancedClustering(seed=5).form_clusters(range(12), 3)
        b = RandomBalancedClustering(seed=5).form_clusters(range(12), 3)
        assert [v.members for v in a.views()] == [
            v.members for v in b.views()
        ]

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ClusteringError):
            RandomBalancedClustering().form_clusters([0, 1], 3)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ClusteringError):
            RandomBalancedClustering().form_clusters([0, 1], 0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ClusteringError):
            RandomBalancedClustering().form_clusters([0, 0, 1], 2)


class TestKMeans:
    def test_partitions_everything(self):
        points = place_regions(40, n_regions=4, seed=1)
        table = KMeansClustering(points, seed=1).form_clusters(
            list(range(40)), 4
        )
        assert table.node_count == 40
        table.check_invariants()

    def test_balancing_caps_cluster_size(self):
        points = place_regions(40, n_regions=2, seed=2)
        table = KMeansClustering(points, seed=2).form_clusters(
            list(range(40)), 4
        )
        assert max(table.sizes()) <= 10 + 1  # ceil(40/4) with slack

    def test_compactness_beats_random(self):
        """k-means clusters are geographically tighter than random ones."""
        points = place_regions(60, n_regions=4, seed=3)
        kmeans = KMeansClustering(points, seed=3).form_clusters(
            list(range(60)), 4
        )
        rand = RandomBalancedClustering(seed=3).form_clusters(
            list(range(60)), 4
        )

        def spread(table):
            total = 0.0
            for view in table.views():
                total += mean_pairwise_distance(
                    [points[m] for m in view.members]
                )
            return total

        assert spread(kmeans) < spread(rand)

    def test_missing_coordinate_raises(self):
        with pytest.raises(ClusteringError):
            KMeansClustering([(0, 0)]).form_clusters([0, 5], 1)


class TestLatencyAwareGreedy:
    def test_balanced_sizes(self):
        points = place_uniform(30, seed=4)
        table = LatencyAwareGreedyClustering(points, seed=4).form_clusters(
            list(range(30)), 5
        )
        sizes = table.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_all_assigned(self):
        points = place_uniform(17, seed=5)
        table = LatencyAwareGreedyClustering(points, seed=5).form_clusters(
            list(range(17)), 3
        )
        assert table.node_count == 17
        table.check_invariants()

    def test_compactness_beats_random(self):
        points = place_regions(48, n_regions=4, seed=6)
        greedy = LatencyAwareGreedyClustering(points, seed=6).form_clusters(
            list(range(48)), 4
        )
        rand = RandomBalancedClustering(seed=6).form_clusters(
            list(range(48)), 4
        )

        def spread(table):
            return sum(
                mean_pairwise_distance([points[m] for m in view.members])
                for view in table.views()
            )

        assert spread(greedy) < spread(rand)


class TestTargetSize:
    def test_rounds_to_nearest_cluster_count(self):
        table = clusters_for_target_size(
            list(range(100)), 25, RandomBalancedClustering(seed=0)
        )
        assert table.cluster_count == 4

    def test_minimum_one_cluster(self):
        table = clusters_for_target_size(
            list(range(3)), 100, RandomBalancedClustering(seed=0)
        )
        assert table.cluster_count == 1

    def test_bad_target_rejected(self):
        with pytest.raises(ClusteringError):
            clusters_for_target_size(
                [0, 1], 0, RandomBalancedClustering()
            )
