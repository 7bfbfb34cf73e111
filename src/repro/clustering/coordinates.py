"""Synthetic network coordinates.

Real deployments estimate pairwise latency with network coordinate systems
(Vivaldi and friends).  The simulator sidesteps estimation: nodes are placed
directly on a 2-D plane and the :class:`~repro.net.latency.CoordinateLatency`
model derives delays from distance.  The placement generator below produces
geo-like "region" blobs, where latency-aware clustering visibly beats random
clustering (E10).
"""

from __future__ import annotations

import math
import random

from repro.errors import ConfigurationError

Coordinate = tuple[float, float]


def place_regions(
    n_nodes: int,
    n_regions: int = 5,
    extent: float = 100.0,
    region_radius: float = 8.0,
    seed: int = 0,
) -> list[Coordinate]:
    """Place nodes in Gaussian blobs around region centers.

    Models geographic concentration (data centers / population hubs): nodes
    within a region are close (low latency), regions are far apart.
    """
    if n_regions < 1:
        raise ConfigurationError("need at least one region")
    rng = random.Random(seed)
    centers = [
        (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
        for _ in range(n_regions)
    ]
    coordinates: list[Coordinate] = []
    for index in range(n_nodes):
        cx, cy = centers[index % n_regions]
        coordinates.append(
            (
                rng.gauss(cx, region_radius),
                rng.gauss(cy, region_radius),
            )
        )
    return coordinates


def distance(a: Coordinate, b: Coordinate) -> float:
    """Euclidean distance between two coordinates."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def centroid(points: list[Coordinate]) -> Coordinate:
    """Mean point of a non-empty coordinate list.

    Raises:
        ConfigurationError: for an empty list.
    """
    if not points:
        raise ConfigurationError("centroid of empty point set")
    n = float(len(points))
    return (
        sum(p[0] for p in points) / n,
        sum(p[1] for p in points) / n,
    )


def mean_pairwise_distance(points: list[Coordinate]) -> float:
    """Average distance over all unordered pairs (0.0 for <2 points)."""
    if len(points) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            total += distance(a, b)
            pairs += 1
    return total / pairs
