"""Scenario descriptions: the CLI's comparable deployments.

A :class:`Scenario` captures what a ``repro`` command varies — strategy,
population, cluster count, replication, latency model, seed — and
:func:`build_deployment` turns it into a live deployment under
:data:`BENCH_LIMITS`, so every strategy is built on an
identically-configured substrate.  Experiments that need other
:class:`~repro.core.config.ICIConfig` knobs build the config directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.chain.validation import ValidationLimits
from repro.clustering.coordinates import place_regions
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.core.interface import StorageDeployment
from repro.errors import ConfigurationError
from repro.net.latency import (
    ConstantLatency,
    CoordinateLatency,
    UniformLatency,
)
from repro.net.network import Network

#: Small limits suited to simulation benches: ~50 KB blocks keep event
#: counts manageable while preserving every size *ratio* the paper cares
#: about (all strategies are compared under the same limits).
BENCH_LIMITS = ValidationLimits(
    max_block_body_bytes=50_000,
    max_tx_bytes=10_000,
)


@dataclass(frozen=True)
class Scenario:
    """One command's deployment recipe.

    Attributes:
        strategy: ``"ici"``, ``"full"``, or ``"rapidchain"``.
        n_nodes: population size.
        n_groups: clusters (ICI) or committees (RapidChain); ignored by
            full replication.
        replication: ICI in-cluster replication factor.
        latency: ``"constant"``, ``"uniform"``, or ``"regions"`` (2-D
            coordinates with geographic blobs).
    """

    strategy: str = "ici"
    n_nodes: int = 40
    n_groups: int = 4
    replication: int = 1
    latency: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("ici", "full", "rapidchain"):
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.latency not in ("constant", "uniform", "regions"):
            raise ConfigurationError(f"unknown latency {self.latency!r}")
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be positive")


def build_network(scenario: Scenario) -> tuple[Network, list | None]:
    """The fabric for a scenario; returns ``(network, coordinates)``."""
    coordinates = None
    if scenario.latency == "constant":
        latency = ConstantLatency(0.05)
    elif scenario.latency == "uniform":
        latency = UniformLatency(0.02, 0.2, seed=scenario.seed)
    else:
        coordinates = place_regions(
            scenario.n_nodes,
            n_regions=max(scenario.n_groups, 2),
            seed=scenario.seed,
        )
        latency = CoordinateLatency(coordinates)
    return Network(latency=latency), coordinates


def build_deployment(scenario: Scenario) -> StorageDeployment:
    """Instantiate the scenario's strategy on a fresh network."""
    network, coordinates = build_network(scenario)
    if scenario.strategy == "full":
        return FullReplicationDeployment(
            scenario.n_nodes,
            network=network,
            limits=BENCH_LIMITS,
            seed=scenario.seed,
        )
    if scenario.strategy == "rapidchain":
        return RapidChainDeployment(
            scenario.n_nodes,
            n_committees=scenario.n_groups,
            network=network,
            limits=BENCH_LIMITS,
            seed=scenario.seed,
        )
    config = ICIConfig(
        n_clusters=scenario.n_groups,
        replication=scenario.replication,
        limits=BENCH_LIMITS,
        seed=scenario.seed,
    )
    return ICIDeployment(
        scenario.n_nodes,
        config=config,
        network=network,
        coordinates=coordinates,
    )
