"""E9 (ablation): placement policy — balance vs membership stability.

Design choice called out in DESIGN.md: the default rendezvous (HRW)
placement trades a little balance for near-zero migration on membership
change; modulo placement is equally balanced but reshuffles almost every
block when a node joins; round-robin is perfectly balanced and also
reshuffles; capacity-weighted follows configured heterogeneity.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.chain.block import BlockHeader
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.storage.placement import (
    CapacityWeightedPlacement,
    ModuloSlotPlacement,
    RendezvousPlacement,
    RoundRobinPlacement,
    load_imbalance,
    placement_load,
)

CLUSTER_SIZE = 10
N_BLOCKS = 1000
REPLICATION = 2


def header_at(height: int) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=sha256(f"h{height}".encode()),
        merkle_root=ZERO_HASH,
        timestamp=float(height),
    )


def migration_fraction(policy, headers, members) -> float:
    grown = list(members) + [max(members) + 1]
    moved = sum(
        set(policy.holders(h, members, REPLICATION))
        != set(policy.holders(h, grown, REPLICATION))
        for h in headers
    )
    return moved / len(headers)


def test_e9_placement_ablation(results_dir):
    members = list(range(CLUSTER_SIZE))
    headers = [header_at(h) for h in range(N_BLOCKS)]
    policies = {
        "rendezvous (default)": RendezvousPlacement(),
        "modulo": ModuloSlotPlacement(),
        "round_robin": RoundRobinPlacement(),
        "capacity (2x node 0)": CapacityWeightedPlacement(
            capacities={0: 2.0}
        ),
    }
    stats: dict[str, tuple[float, float]] = {}

    def run_ablation():
        for name, policy in policies.items():
            load = placement_load(headers, members, REPLICATION, policy)
            stats[name] = (
                load_imbalance(load),
                migration_fraction(policy, headers, members),
            )

    run_ablation()

    rows = [
        (name, f"{stats[name][0]:.3f}", f"{stats[name][1]:.1%}")
        for name in policies
    ]
    table = render_table(
        ["policy", "load imbalance (max/mean)", "blocks moved on join"],
        rows,
        title=(
            f"E9  Placement ablation "
            f"(m={CLUSTER_SIZE}, r={REPLICATION}, {N_BLOCKS} blocks)"
        ),
    )
    emit(results_dir, "e9_placement_ablation", table)

    # Shape assertions: rendezvous is near-balanced AND membership-stable;
    # modulo/round-robin reshuffle most blocks on a join.
    rendezvous = stats["rendezvous (default)"]
    assert rendezvous[0] < 1.4
    expected_move = REPLICATION / (CLUSTER_SIZE + 1)
    assert rendezvous[1] < 2.5 * expected_move
    assert stats["modulo"][1] > 0.5
    assert stats["round_robin"][0] == 1.0
    assert stats["round_robin"][1] > 0.5
    # The capacity policy actually skews load toward the big node.
    cap_load = placement_load(
        headers, members, REPLICATION, policies["capacity (2x node 0)"]
    )
    mean_others = sum(cap_load[m] for m in members[1:]) / (CLUSTER_SIZE - 1)
    assert cap_load[0] > 1.4 * mean_others


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    members = list(range(CLUSTER_SIZE))
    headers = [header_at(h) for h in range(200)]
    for policy in (
        RendezvousPlacement(),
        ModuloSlotPlacement(),
        RoundRobinPlacement(),
        CapacityWeightedPlacement(capacities={0: 2.0}),
    ):
        placement_load(headers, members, REPLICATION, policy)
        migration_fraction(policy, headers, members)
    return []  # purely computational: no deployment, nothing to compare


WORKLOAD = BenchWorkload(
    bench_id="e9",
    title="placement policies over a long synthetic chain",
    run=_bench_workload,
)
