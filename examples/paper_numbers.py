"""The abstract's three claims, regenerated in one run.

The ICDCS 2020 abstract makes three quantitative promises:

1. storage: "just needs 25% of storage space needed by Rapidchain";
2. communication: "reduce communication overhead by collaboratively
   storing and verifying blocks through in-cluster nodes";
3. bootstrapping: "could greatly save the overhead of bootstrapping".

This script reproduces all three — the storage claim at the paper's
literal scale (N=1000, committees of 250, a 2 GB ledger of 1 MB blocks)
via exact placement layout, the other two on the message-driven
simulator.

Run:  python examples/paper_numbers.py
"""

from __future__ import annotations

from repro import (
    FullReplicationDeployment,
    ICIConfig,
    ICIDeployment,
    RapidChainDeployment,
    ScenarioRunner,
)
from repro.analysis.tables import format_bytes, render_table
from repro.sim.scenario import BENCH_LIMITS
from repro.storage.communication import ici_advantage_factor
from repro.storage.layout import (
    balanced_clusters,
    ici_layout,
    rapidchain_layout,
    synthetic_chain,
)


def claim_1_storage() -> None:
    print("Claim 1 — 25% of RapidChain's storage (N=1000, 2 GB ledger)")
    blocks = synthetic_chain(2000, mean_body_bytes=1_000_000, seed=1)
    ici = ici_layout(
        balanced_clusters(1000, 62, seed=1), blocks, replication=1
    )  # clusters of ~16
    rapid = rapidchain_layout(
        balanced_clusters(1000, 4, seed=1), blocks
    )  # committees of 250
    ici_bodies = sum(r.body_bytes for r in ici.per_node)
    rapid_bodies = sum(r.body_bytes for r in rapid.per_node)
    print(
        render_table(
            ["quantity", "value"],
            [
                ("RapidChain network storage", format_bytes(rapid_bodies)),
                ("ICIStrategy network storage", format_bytes(ici_bodies)),
                ("ratio", f"{ici_bodies / rapid_bodies:.1%}  (claim: 25%)"),
                ("ICI bytes per node (mean)", format_bytes(ici_bodies / 1000)),
            ],
        )
    )


def claim_2_communication() -> None:
    print("\nClaim 2 — reduced communication overhead per block")
    n, groups, blocks = 48, 6, 10
    rows = []
    for name, deployment in (
        ("full replication", FullReplicationDeployment(n, limits=BENCH_LIMITS)),
        (
            "ici",
            ICIDeployment(
                n,
                config=ICIConfig(
                    n_clusters=groups, replication=1, limits=BENCH_LIMITS
                ),
            ),
        ),
    ):
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        runner.produce_blocks(blocks, txs_per_block=8)
        rows.append(
            (
                name,
                format_bytes(
                    deployment.network.traffic.total_bytes / blocks
                ),
            )
        )
    print(render_table(["strategy", "traffic per block"], rows))
    print(
        "exact model at 1 MB blocks (N=1000, m=16, r=1): full/ici = "
        f"{ici_advantage_factor(1000, 16, ICIConfig(), 1_000_000):.1f}x"
    )


def claim_3_bootstrap() -> None:
    print("\nClaim 3 — greatly reduced bootstrapping overhead")
    # Groups of 12: a RapidChain joiner downloads its committee's whole
    # shard (D/4); an ICI joiner only its assigned slice (≈ D/13).
    n, groups, blocks = 48, 4, 30
    rows = []
    for name, deployment in (
        ("full node", FullReplicationDeployment(n, limits=BENCH_LIMITS)),
        (
            "rapidchain",
            RapidChainDeployment(
                n, n_committees=groups, limits=BENCH_LIMITS
            ),
        ),
        (
            "ici",
            ICIDeployment(
                n,
                config=ICIConfig(
                    n_clusters=groups, replication=1, limits=BENCH_LIMITS
                ),
            ),
        ),
    ):
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        runner.produce_blocks(blocks, txs_per_block=8)
        join = deployment.join_new_node()
        deployment.run()
        rows.append((name, format_bytes(join.total_bytes)))
    print(render_table(["strategy", "joiner download"], rows))


if __name__ == "__main__":
    claim_1_storage()
    claim_2_communication()
    claim_3_bootstrap()
