"""repro — ICIStrategy: multi-node collaborative blockchain storage.

A from-scratch reproduction of *"A Multi-node Collaborative Storage
Strategy via Clustering in Blockchain Network"* (Li, Qin, Liu, Chu —
ICDCS 2020).  The package bundles the strategy itself plus every
substrate it runs on: a UTXO ledger, a discrete-event network simulator,
clustering, intra-cluster BFT verification, and the baselines the paper
compares against (full replication and RapidChain-style sharding).

Quickstart::

    from repro import ICIConfig, ICIDeployment, ScenarioRunner

    deployment = ICIDeployment(
        n_nodes=40, config=ICIConfig(n_clusters=4, replication=2)
    )
    runner = ScenarioRunner(deployment)
    runner.produce_blocks(10)
    print(deployment.storage_report().mean_node_bytes)
"""

from repro.baselines import (
    FullReplicationDeployment,
    RapidChainDeployment,
)
from repro.core import (
    BootstrapReport,
    DeploymentMetrics,
    ICIConfig,
    ICIDeployment,
    StorageDeployment,
)
from repro.protocols.query import QueryRecord
from repro.sim import (
    BENCH_LIMITS,
    RunReport,
    Scenario,
    ScenarioRunner,
    TransactionWorkload,
    WorkloadConfig,
    build_deployment,
)

__version__ = "1.0.0"

__all__ = [
    "FullReplicationDeployment",
    "RapidChainDeployment",
    "BootstrapReport",
    "DeploymentMetrics",
    "ICIConfig",
    "ICIDeployment",
    "QueryRecord",
    "StorageDeployment",
    "BENCH_LIMITS",
    "RunReport",
    "Scenario",
    "ScenarioRunner",
    "TransactionWorkload",
    "WorkloadConfig",
    "build_deployment",
    "__version__",
]
