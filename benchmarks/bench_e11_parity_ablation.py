"""E11 (extension ablation): replication vs XOR parity for crash safety.

The paper's future-work direction: with r=1 a member crash loses its
blocks (E7); the classic fixes are a second replica (r=2, +100% body
storage) or RAID-5-style parity striping (+1/k body storage, read
amplification on repair).  This bench quantifies the triangle:
storage overhead × crash-loss × repair cost.
"""

from __future__ import annotations

from benchmarks.conftest import build_ici, drive, emit
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload

N_NODES = 20
N_CLUSTERS = 2
N_BLOCKS = 16
PARITY_GROUP = 4


def crash_first_member(deployment):
    cluster = deployment.nodes[0].cluster_id
    victim = deployment.clusters.members_of(cluster)[0]
    report = deployment.repair_after_crash(victim)
    deployment.run()
    return cluster, report


def body_bytes_total(deployment) -> int:
    total = sum(
        r.body_bytes for r in deployment.storage_report().per_node
    )
    if deployment.parity is not None:
        total += deployment.parity.total_parity_bytes
    return total


def test_e11_parity_ablation(results_dir):
    outcomes = {}

    def run_ablation():
        for name, kwargs in (
            ("r=1 (baseline)", dict(replication=1)),
            ("r=2 (replica)", dict(replication=2)),
            (
                f"r=1 + parity k={PARITY_GROUP}",
                dict(replication=1, parity_group_size=PARITY_GROUP),
            ),
        ):
            deployment = build_ici(N_NODES, N_CLUSTERS, **kwargs)
            drive(deployment, N_BLOCKS)
            if deployment.parity is not None:
                deployment.parity.flush(deployment)
            storage = body_bytes_total(deployment)
            cluster, report = crash_first_member(deployment)
            outcomes[name] = (
                storage,
                len(report.lost_blocks),
                report.bytes_moved,
                deployment.cluster_holds_full_ledger(cluster),
            )

    run_ablation()

    baseline = outcomes["r=1 (baseline)"][0]
    rows = [
        (
            name,
            format_bytes(storage),
            f"{100 * storage / baseline:.0f}%",
            lost,
            "yes" if intact else "NO",
        )
        for name, (storage, lost, _moved, intact) in outcomes.items()
    ]
    table = render_table(
        [
            "scheme",
            "body+parity bytes",
            "vs r=1",
            "blocks lost on crash",
            "integrity after repair",
        ],
        rows,
        title=(
            f"E11  Crash-safety ablation "
            f"(N={N_NODES}, {N_CLUSTERS} clusters, {N_BLOCKS} blocks)"
        ),
    )
    emit(results_dir, "e11_parity_ablation", table)

    r1 = outcomes["r=1 (baseline)"]
    r2 = outcomes["r=2 (replica)"]
    parity = outcomes[f"r=1 + parity k={PARITY_GROUP}"]
    # r=1 loses data; both protections lose nothing.
    assert r1[1] > 0 and not r1[3]
    assert r2[1] == 0 and r2[3]
    assert parity[1] == 0 and parity[3]
    # Parity sits strictly between r=1 and r=2 on storage.
    assert r1[0] < parity[0] < r2[0]
    # And well under the replica cost: ≤ (1 + 1/k + slack)·r1.
    assert parity[0] < r1[0] * (1 + 1.0 / PARITY_GROUP + 0.20)


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    blocks = 8
    outputs = []
    for label, kwargs in (
        ("r1", dict(replication=1)),
        ("r2", dict(replication=2)),
        ("parity", dict(replication=1, parity_group_size=PARITY_GROUP)),
    ):
        deployment = build_ici(N_NODES, N_CLUSTERS, **kwargs)
        drive(deployment, blocks)
        if deployment.parity is not None:
            deployment.parity.flush(deployment)
        crash_first_member(deployment)
        outputs.append((label, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e11",
    title="crash-safety schemes with repair",
    run=_bench_workload,
)
