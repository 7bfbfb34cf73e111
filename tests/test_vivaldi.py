"""Tests for Vivaldi network-coordinate estimation."""

from __future__ import annotations

import math

import pytest

from repro.clustering.coordinates import place_regions
from repro.clustering.vivaldi import VivaldiEstimator, embedding_quality
from repro.errors import ConfigurationError
from repro.net.latency import ConstantLatency, CoordinateLatency
from tests.conftest import place_uniform


def mean_error(estimator: VivaldiEstimator) -> float:
    """Average confidence value across all nodes (lower is better)."""
    return sum(node.error for node in estimator._nodes) / len(estimator._nodes)


class TestConstruction:
    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            VivaldiEstimator(0)
        with pytest.raises(ConfigurationError):
            VivaldiEstimator(4, cc=0.0)
        with pytest.raises(ConfigurationError):
            VivaldiEstimator(4, ce=1.5)

    def test_initial_error_is_maximal(self):
        estimator = VivaldiEstimator(4)
        assert {node.error for node in estimator._nodes} == {1.0}

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            VivaldiEstimator(2).observe(0, 1, -0.1)


class TestConvergence:
    def test_embeds_euclidean_latencies_accurately(self):
        points = place_regions(30, n_regions=4, seed=2)
        model = CoordinateLatency(points)
        estimator = VivaldiEstimator(30, seed=2)
        coordinates = estimator.estimate_from_model(model, rounds=40)
        quality = embedding_quality(model, coordinates, range(30), seed=2)
        assert quality < 0.15

    def test_confidence_improves_with_samples(self):
        points = place_uniform(20, seed=3)
        model = CoordinateLatency(points)
        estimator = VivaldiEstimator(20, seed=3)
        assert mean_error(estimator) == 1.0
        estimator.estimate_from_model(model, rounds=30)
        # Confidence converges far below the clueless starting value.
        assert mean_error(estimator) < 0.2

    def test_deterministic_under_seed(self):
        points = place_uniform(12, seed=4)
        model = CoordinateLatency(points)
        a = VivaldiEstimator(12, seed=9).estimate_from_model(model, rounds=10)
        b = VivaldiEstimator(12, seed=9).estimate_from_model(model, rounds=10)
        assert a == b

    def test_constant_latency_spreads_nodes(self):
        """Uniform pairwise latency: every pair ends ≈ the same distance."""
        model = ConstantLatency(0.05)
        estimator = VivaldiEstimator(4, seed=5)
        coordinates = estimator.estimate_from_model(model, rounds=60)
        distances = [
            math.hypot(
                coordinates[i][0] - coordinates[j][0],
                coordinates[i][1] - coordinates[j][1],
            )
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        # 4 equidistant points cannot embed exactly in 2-D, but all
        # pairwise distances should land in a narrow band near 0.05.
        assert max(distances) < 2.5 * min(distances)

    def test_coincident_start_separates(self):
        estimator = VivaldiEstimator(2, seed=6)
        for _ in range(30):
            estimator.observe(0, 1, 0.08)
        coordinates = estimator.coordinates()
        gap = math.hypot(
            coordinates[0][0] - coordinates[1][0],
            coordinates[0][1] - coordinates[1][1],
        )
        assert gap == pytest.approx(0.08, rel=0.2)


class TestClusteringOnEstimates:
    def test_estimated_coordinates_cluster_like_true_ones(self):
        """k-means on Vivaldi output recovers region structure."""
        from repro.clustering.algorithms import KMeansClustering
        from repro.clustering.coordinates import mean_pairwise_distance

        from repro.clustering.algorithms import RandomBalancedClustering

        points = place_regions(40, n_regions=4, seed=7)
        model = CoordinateLatency(points)
        estimated = VivaldiEstimator(40, seed=7).estimate_from_model(
            model, rounds=40
        )

        def spread_of(table):
            return sum(
                mean_pairwise_distance([points[m] for m in view.members])
                for view in table.views()
            ) / table.cluster_count

        on_estimates = spread_of(
            KMeansClustering(estimated, seed=7).form_clusters(
                list(range(40)), 4
            )
        )
        on_truth = spread_of(
            KMeansClustering(points, seed=7).form_clusters(
                list(range(40)), 4
            )
        )
        on_random = spread_of(
            RandomBalancedClustering(seed=7).form_clusters(
                list(range(40)), 4
            )
        )
        # Estimated coordinates recover most of the true-coordinate win.
        assert on_estimates < on_random
        assert on_estimates < 1.4 * on_truth

    def test_embedding_quality_bounds(self):
        points = place_uniform(10, seed=8)
        model = CoordinateLatency(points)
        perfect = [
            (x * 0.001 + 0.005 * 0, y * 0.001) for x, y in points
        ]
        # Perfectly scaled coordinates ≈ model distances (up to base).
        quality = embedding_quality(model, perfect, range(10), seed=8)
        assert quality < 0.2
