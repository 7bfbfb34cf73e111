"""Core: the ICIStrategy deployment and its collaborative protocols."""

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment, QUERY_TIMEOUT
from repro.core.interface import StorageDeployment
from repro.core.metrics import (
    BootstrapReport,
    DepartureReport,
    DeploymentMetrics,
)
from repro.core.explorer import AddressEvent, ChainExplorer, TxLocation
from repro.core.parity import ParityManager, RecoveryReport

__all__ = [
    "ICIConfig",
    "ICIDeployment",
    "QUERY_TIMEOUT",
    "StorageDeployment",
    "BootstrapReport",
    "DepartureReport",
    "DeploymentMetrics",
    "AddressEvent",
    "ChainExplorer",
    "TxLocation",
    "ParityManager",
    "RecoveryReport",
]
