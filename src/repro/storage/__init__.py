"""Storage engine: placement, accounting, replication health, erasure."""

from repro.storage.accounting import (
    NetworkStorageReport,
    NodeStorageReport,
    full_replication_total,
    ici_per_node,
    ici_total,
    rapidchain_per_node,
    rapidchain_total,
    report_network,
    report_node,
)
from repro.storage.communication import (
    full_replication_block_bytes,
    header_flood_bytes,
    ici_advantage_factor,
    ici_block_bytes,
)
from repro.storage.placement import (
    CapacityWeightedPlacement,
    ModuloSlotPlacement,
    RendezvousPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    load_imbalance,
    placement_load,
)
from repro.storage.replication import (
    AvailabilityReport,
    analytic_block_survival,
    availability_under_failures,
    binomial_failure_probability,
    sample_failure_sets,
)

__all__ = [
    "NetworkStorageReport",
    "NodeStorageReport",
    "full_replication_total",
    "ici_per_node",
    "ici_total",
    "rapidchain_per_node",
    "rapidchain_total",
    "report_network",
    "report_node",
    "full_replication_block_bytes",
    "header_flood_bytes",
    "ici_advantage_factor",
    "ici_block_bytes",
    "CapacityWeightedPlacement",
    "ModuloSlotPlacement",
    "RendezvousPlacement",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "load_imbalance",
    "placement_load",
    "AvailabilityReport",
    "analytic_block_survival",
    "availability_under_failures",
    "binomial_failure_probability",
    "sample_failure_sets",
]
