"""Baselines: full replication, RapidChain-style sharding, SPV clients."""

from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.baselines.spv import (
    spv_bootstrap_bytes,
)

__all__ = [
    "FullReplicationDeployment",
    "RapidChainDeployment",
    "spv_bootstrap_bytes",
]
