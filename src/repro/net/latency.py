"""Latency and bandwidth models for simulated links.

A :class:`LatencyModel` answers "how long does the first byte take from A to
B"; bandwidth (bytes/second) then stretches large payloads.  Models are
deterministic functions of the node pair (plus a seeded RNG where jitter is
wanted), so simulations replay identically.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

#: Default link bandwidth: 20 Mbit/s ≈ 2.5 MB/s (consumer-grade peer).
DEFAULT_BANDWIDTH_BPS = 2_500_000.0


class LatencyModel(ABC):
    """Base class: one-way propagation delay between two node ids."""

    @abstractmethod
    def delay(self, sender: int, recipient: int) -> float:
        """One-way propagation delay in seconds (excludes transmission)."""

    def transmission_time(self, size_bytes: int, bandwidth_bps: float) -> float:
        """Seconds to push ``size_bytes`` through a ``bandwidth_bps`` link."""
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        return size_bytes / bandwidth_bps

    def total_delay(
        self,
        sender: int,
        recipient: int,
        size_bytes: int,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> float:
        """Propagation + transmission delay for a message."""
        return self.delay(sender, recipient) + self.transmission_time(
            size_bytes, bandwidth_bps
        )


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every pair sees the same fixed delay (unit-test friendly)."""

    seconds: float = 0.05

    def delay(self, sender: int, recipient: int) -> float:
        """See :meth:`LatencyModel.delay`."""
        if sender == recipient:
            return 0.0
        return self.seconds

    def total_delay(
        self, sender, recipient, size_bytes, bandwidth_bps=DEFAULT_BANDWIDTH_BPS
    ):
        """The base class's sum in one frame (the per-message hot call)."""
        if bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        propagation = 0.0 if sender == recipient else self.seconds
        return propagation + size_bytes / bandwidth_bps


class UniformLatency(LatencyModel):
    """Per-pair delay drawn once from ``[low, high)``, then frozen.

    The draw is seeded from the (unordered) pair, so A→B and B→A see the
    same delay and replays are identical without storing a matrix.
    """

    def __init__(self, low: float = 0.02, high: float = 0.2, seed: int = 0) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError("need 0 <= low <= high")
        self._low = low
        self._high = high
        self._seed = seed

    def delay(self, sender: int, recipient: int) -> float:
        """See :meth:`LatencyModel.delay`."""
        if sender == recipient:
            return 0.0
        a, b = min(sender, recipient), max(sender, recipient)
        rng = random.Random((self._seed << 40) ^ (a << 20) ^ b)
        return rng.uniform(self._low, self._high)


class CoordinateLatency(LatencyModel):
    """Delay proportional to Euclidean distance in a 2-D coordinate space.

    Nodes are placed on a plane (e.g., by
    :func:`repro.clustering.coordinates.place_nodes`); delay is
    ``base + distance * seconds_per_unit``.  This is the model under which
    latency-aware clustering actually helps, so the E10 ablation uses it.
    """

    def __init__(
        self,
        coordinates: Sequence[tuple[float, float]],
        seconds_per_unit: float = 0.001,
        base_seconds: float = 0.005,
    ) -> None:
        if seconds_per_unit < 0 or base_seconds < 0:
            raise ConfigurationError("latency factors must be non-negative")
        self._coordinates = list(coordinates)
        self._seconds_per_unit = seconds_per_unit
        self._base_seconds = base_seconds

    def coordinate_of(self, node_id: int) -> tuple[float, float]:
        """The plane position of ``node_id``."""
        try:
            return self._coordinates[node_id]
        except IndexError:
            raise ConfigurationError(
                f"no coordinate for node {node_id}"
            ) from None

    def delay(self, sender: int, recipient: int) -> float:
        """See :meth:`LatencyModel.delay`."""
        if sender == recipient:
            return 0.0
        sx, sy = self.coordinate_of(sender)
        rx, ry = self.coordinate_of(recipient)
        distance = math.hypot(sx - rx, sy - ry)
        return self._base_seconds + distance * self._seconds_per_unit

    def total_delay(
        self, sender, recipient, size_bytes, bandwidth_bps=DEFAULT_BANDWIDTH_BPS
    ):
        """The base class's sum in one frame (the per-message hot call)."""
        if sender != recipient and bandwidth_bps > 0:
            try:
                sx, sy = self._coordinates[sender]
                rx, ry = self._coordinates[recipient]
                return (
                    self._base_seconds
                    + math.hypot(sx - rx, sy - ry) * self._seconds_per_unit
                    + size_bytes / bandwidth_bps
                )
            except IndexError:
                pass  # unknown node: the base class raises, naming it
        return super().total_delay(sender, recipient, size_bytes, bandwidth_bps)
