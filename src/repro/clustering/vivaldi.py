"""Vivaldi network coordinates: estimating positions from latencies.

The latency-aware clustering algorithms need per-node coordinates, but a
real deployment only observes round-trip times.  Vivaldi (Dabek et al.,
SIGCOMM 2004) models nodes as points connected by springs whose rest
lengths are the measured latencies, and relaxes the system: each sample
``(i, j, rtt)`` pulls/pushes ``i`` along the error gradient with an
adaptive timestep weighted by confidence.

:class:`VivaldiEstimator` runs the classic algorithm over latency samples
drawn from any :class:`~repro.net.latency.LatencyModel`; the E15 ablation
shows clustering on *estimated* coordinates recovers nearly all of the
retrieval-latency win of clustering on true positions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.clustering.coordinates import Coordinate
from repro.errors import ConfigurationError
from repro.net.latency import LatencyModel

#: Adaptive-timestep constant (cc in the paper).
DEFAULT_CC = 0.25
#: Confidence-update constant (ce in the paper).
DEFAULT_CE = 0.25


@dataclass
class _NodeState:
    position: list[float] = field(default_factory=lambda: [0.0, 0.0])
    error: float = 1.0  # confidence: 1 = clueless, →0 = converged


class VivaldiEstimator:
    """Spring-relaxation coordinate estimation in 2-D.

    Use :meth:`observe` to feed individual latency samples, or
    :meth:`estimate_from_model` to sample a simulator latency model
    directly (what the ablation does).
    """

    def __init__(
        self,
        n_nodes: int,
        cc: float = DEFAULT_CC,
        ce: float = DEFAULT_CE,
        seed: int = 0,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        if not 0 < cc <= 1 or not 0 < ce <= 1:
            raise ConfigurationError("cc and ce must be in (0, 1]")
        self._cc = cc
        self._ce = ce
        rng = random.Random(seed)
        # Tiny random placement breaks the all-at-origin symmetry.
        self._nodes = [
            _NodeState(
                position=[rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
            )
            for _ in range(n_nodes)
        ]
        self._rng = rng

    # -------------------------------------------------------------- update
    def observe(self, i: int, j: int, latency: float) -> None:
        """Fold one measured one-way latency between nodes ``i`` and ``j``.

        Both endpoints move (each sample is symmetric in the simulator).
        """
        if latency < 0:
            raise ConfigurationError("latency must be non-negative")
        self._update_one(i, j, latency)
        self._update_one(j, i, latency)

    def _update_one(self, i: int, j: int, latency: float) -> None:
        node = self._nodes[i]
        peer = self._nodes[j]
        dx = node.position[0] - peer.position[0]
        dy = node.position[1] - peer.position[1]
        distance = math.hypot(dx, dy)
        if distance == 0.0:
            angle = self._rng.uniform(0, 2 * math.pi)
            dx, dy = math.cos(angle) * 1e-3, math.sin(angle) * 1e-3
            distance = 1e-3
        unit = (dx / distance, dy / distance)

        sample_error = abs(distance - latency) / max(latency, 1e-9)
        weight = node.error / max(node.error + peer.error, 1e-9)
        node.error = (
            sample_error * self._ce * weight
            + node.error * (1 - self._ce * weight)
        )
        delta = self._cc * weight
        force = delta * (latency - distance)
        node.position[0] += force * unit[0]
        node.position[1] += force * unit[1]

    def estimate_from_model(
        self,
        model: LatencyModel,
        node_ids: Sequence[int] | None = None,
        rounds: int = 40,
        neighbors_per_round: int = 8,
    ) -> list[Coordinate]:
        """Sample a latency model and relax until coordinates settle.

        Each round every node probes ``neighbors_per_round`` random peers
        (the standard gossip-driven deployment pattern).

        Returns positions indexed by node id.
        """
        ids = list(node_ids) if node_ids is not None else list(
            range(len(self._nodes))
        )
        if len(ids) > len(self._nodes):
            raise ConfigurationError("more node ids than estimator slots")
        for _ in range(rounds):
            for i in ids:
                peers = self._rng.sample(
                    [j for j in ids if j != i],
                    min(neighbors_per_round, len(ids) - 1),
                )
                for j in peers:
                    self.observe(i, j, model.delay(i, j))
        return self.coordinates()

    # ------------------------------------------------------------- queries
    def coordinates(self) -> list[Coordinate]:
        """Current position estimates, indexed by node id."""
        return [
            (node.position[0], node.position[1]) for node in self._nodes
        ]


def embedding_quality(
    model: LatencyModel,
    coordinates: Sequence[Coordinate],
    node_ids: Sequence[int],
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Median relative error of coordinate distances vs true latencies.

    0.0 = perfect embedding; Vivaldi on Euclidean ground truth typically
    lands well under 0.2.
    """
    rng = random.Random(seed)
    errors = []
    ids = list(node_ids)
    for _ in range(samples):
        i, j = rng.sample(ids, 2)
        true = model.delay(i, j)
        estimated = math.hypot(
            coordinates[i][0] - coordinates[j][0],
            coordinates[i][1] - coordinates[j][1],
        )
        errors.append(abs(estimated - true) / max(true, 1e-9))
    errors.sort()
    return errors[len(errors) // 2]
