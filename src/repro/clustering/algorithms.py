"""Cluster formation algorithms.

Three formation strategies, ablated against each other in experiment E10:

* :class:`RandomBalancedClustering` — the paper's storage math assumes
  equal-size clusters; random balanced assignment achieves that exactly and
  is Sybil-resistant (membership is not attacker-choosable), which is why it
  is the default.
* :class:`KMeansClustering` — k-means over network coordinates, then a
  balancing pass, for latency-compact clusters of near-equal size.
* :class:`LatencyAwareGreedyClustering` — seeds k far-apart nodes and grows
  each cluster by grabbing its nearest unassigned node, round-robin, which
  yields perfectly balanced and reasonably compact clusters.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.clustering.coordinates import Coordinate, distance
from repro.clustering.membership import ClusterTable
from repro.errors import ClusteringError

# numpy is imported inside the two k-means methods, its only users: at
# module level it would load (~13 MB, ~0.1 s) into every process that
# imports ``repro``, and the default clustering is random.
if TYPE_CHECKING:
    import numpy as np


def _coordinate(coordinates: list[Coordinate], node_id: int) -> Coordinate:
    """``coordinates[node_id]``; a negative id must not wrap around."""
    if not 0 <= node_id < len(coordinates):
        raise ClusteringError(f"no coordinate for node {node_id}")
    return coordinates[node_id]


class ClusteringAlgorithm(ABC):
    """Base class: partition node ids into a :class:`ClusterTable`."""

    @abstractmethod
    def form_clusters(
        self, node_ids: Sequence[int], n_clusters: int
    ) -> ClusterTable:
        """Partition ``node_ids`` into ``n_clusters`` non-empty clusters.

        Raises:
            ClusteringError: when ``n_clusters`` exceeds the node count or
                is not positive.
        """

    @staticmethod
    def _check_args(node_ids: Sequence[int], n_clusters: int) -> None:
        if n_clusters < 1:
            raise ClusteringError("n_clusters must be positive")
        if n_clusters > len(node_ids):
            raise ClusteringError(
                f"cannot form {n_clusters} clusters from "
                f"{len(node_ids)} nodes"
            )
        if len(set(node_ids)) != len(node_ids):
            raise ClusteringError("duplicate node ids")


class RandomBalancedClustering(ClusteringAlgorithm):
    """Shuffle nodes, deal them round-robin into k clusters.

    Sizes differ by at most one.  Deterministic under ``seed``.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def form_clusters(
        self, node_ids: Sequence[int], n_clusters: int
    ) -> ClusterTable:
        """See :meth:`ClusteringAlgorithm.form_clusters`."""
        self._check_args(node_ids, n_clusters)
        shuffled = list(node_ids)
        random.Random(self._seed).shuffle(shuffled)
        clusters: list[list[int]] = [[] for _ in range(n_clusters)]
        for index, node in enumerate(shuffled):
            clusters[index % n_clusters].append(node)
        return ClusterTable.from_assignment(clusters)


#: Lloyd iterations k-means runs at most before the balancing pass.
KMEANS_MAX_ITERATIONS = 50


class KMeansClustering(ClusteringAlgorithm):
    """Lloyd's k-means over 2-D network coordinates + balancing pass.

    Plain k-means can produce wildly uneven clusters; after convergence a
    balancing pass moves nodes from oversized clusters to the nearest
    undersized one so no cluster exceeds ``ceil(n/k)``.
    """

    def __init__(
        self,
        coordinates: Sequence[Coordinate],
        seed: int = 0,
    ) -> None:
        self._coordinates = list(coordinates)
        self._seed = seed

    def form_clusters(
        self, node_ids: Sequence[int], n_clusters: int
    ) -> ClusterTable:
        """See :meth:`ClusteringAlgorithm.form_clusters`."""
        import numpy as np

        self._check_args(node_ids, n_clusters)
        ids = list(node_ids)
        points = np.array(
            [_coordinate(self._coordinates, node) for node in ids], dtype=float
        )
        rng = np.random.default_rng(self._seed)
        centers = points[
            rng.choice(len(ids), size=n_clusters, replace=False)
        ].copy()

        labels = np.zeros(len(ids), dtype=int)
        for _ in range(KMEANS_MAX_ITERATIONS):
            distances = np.linalg.norm(
                points[:, None, :] - centers[None, :, :], axis=2
            )
            new_labels = distances.argmin(axis=1)
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            for cluster in range(n_clusters):
                mask = labels == cluster
                if mask.any():
                    centers[cluster] = points[mask].mean(axis=0)
        labels = self._rebalance(points, labels, centers, n_clusters)
        clusters: list[list[int]] = [[] for _ in range(n_clusters)]
        for node, label in zip(ids, labels):
            clusters[int(label)].append(node)
        # k-means can still strand an empty cluster on tiny inputs; steal
        # one node from the largest cluster for each empty one.
        for cluster_id, members in enumerate(clusters):
            if members:
                continue
            donor = max(range(n_clusters), key=lambda c: len(clusters[c]))
            if len(clusters[donor]) <= 1:
                raise ClusteringError("cannot populate empty cluster")
            members.append(clusters[donor].pop())
        return ClusterTable.from_assignment(clusters)

    @staticmethod
    def _rebalance(
        points: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
        n_clusters: int,
    ) -> np.ndarray:
        """Cap cluster sizes at ceil(n/k) by reassigning farthest members."""
        import numpy as np

        capacity = -(-len(points) // n_clusters)  # ceil division
        labels = labels.copy()
        for cluster in range(n_clusters):
            while int((labels == cluster).sum()) > capacity:
                members = np.flatnonzero(labels == cluster)
                center = centers[cluster]
                spread = np.linalg.norm(points[members] - center, axis=1)
                victim = members[int(spread.argmax())]
                alternatives = np.linalg.norm(
                    centers - points[victim], axis=1
                )
                order = np.argsort(alternatives)
                for candidate in order:
                    if candidate == cluster:
                        continue
                    if int((labels == candidate).sum()) < capacity:
                        labels[victim] = int(candidate)
                        break
                else:  # every alternative full: give up on this cluster
                    return labels
        return labels


class LatencyAwareGreedyClustering(ClusteringAlgorithm):
    """Seed k mutually-distant nodes, grow clusters round-robin by proximity.

    Guarantees sizes differ by at most one while keeping members close to
    their seed, so intra-cluster retrieval latency stays low under the
    coordinate latency model.
    """

    def __init__(self, coordinates: Sequence[Coordinate], seed: int = 0) -> None:
        self._coordinates = list(coordinates)
        self._seed = seed

    def form_clusters(
        self, node_ids: Sequence[int], n_clusters: int
    ) -> ClusterTable:
        """See :meth:`ClusteringAlgorithm.form_clusters`."""
        self._check_args(node_ids, n_clusters)
        ids = list(node_ids)
        coordinates = self._coordinates
        rng = random.Random(self._seed)

        # Farthest-point seeding.
        seeds = [rng.choice(ids)]
        while len(seeds) < n_clusters:
            best_node, best_score = None, -1.0
            for node in ids:
                if node in seeds:
                    continue
                score = min(
                    distance(
                        _coordinate(coordinates, node), _coordinate(coordinates, s)
                    )
                    for s in seeds
                )
                if score > best_score:
                    best_node, best_score = node, score
            assert best_node is not None
            seeds.append(best_node)

        clusters: list[list[int]] = [[seed] for seed in seeds]
        unassigned = set(ids) - set(seeds)
        while unassigned:
            for cluster_id, members in sorted(
                enumerate(clusters), key=lambda pair: len(pair[1])
            ):
                if not unassigned:
                    break
                seed_point = _coordinate(coordinates, seeds[cluster_id])
                nearest = min(
                    unassigned,
                    key=lambda node: distance(
                        _coordinate(coordinates, node), seed_point
                    ),
                )
                members.append(nearest)
                unassigned.discard(nearest)
        return ClusterTable.from_assignment(clusters)
