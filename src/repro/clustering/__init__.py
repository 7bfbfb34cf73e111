"""Clustering: formation algorithms, membership tables, coordinates."""

from repro.clustering.algorithms import (
    ClusteringAlgorithm,
    KMeansClustering,
    LatencyAwareGreedyClustering,
    RandomBalancedClustering,
)
from repro.clustering.coordinates import (
    Coordinate,
    centroid,
    distance,
    mean_pairwise_distance,
    place_regions,
)
from repro.clustering.membership import ClusterTable, ClusterView
from repro.clustering.vivaldi import VivaldiEstimator, embedding_quality

__all__ = [
    "ClusteringAlgorithm",
    "KMeansClustering",
    "LatencyAwareGreedyClustering",
    "RandomBalancedClustering",
    "Coordinate",
    "centroid",
    "distance",
    "mean_pairwise_distance",
    "place_regions",
    "ClusterTable",
    "ClusterView",
    "VivaldiEstimator",
    "embedding_quality",
]
