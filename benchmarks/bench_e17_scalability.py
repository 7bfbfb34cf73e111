"""E17 (scalability): per-node costs as the network grows.

The paper's motivation is that full replication "is hard to scale": every
node's storage *and* traffic grow with total activity regardless of N.
Under ICIStrategy (fixed cluster size, growing cluster count) the
per-node byte costs should stay ~flat as the population triples — storage
because each cluster's share of nodes shrinks with N, traffic because a
node sees its own cluster's votes plus O(degree) header gossip.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import build_ici, drive, emit
from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.bench.workload import BenchWorkload

POPULATIONS = (48, 96, 144)
CLUSTER_SIZE = 8
N_BLOCKS = 6


def test_e17_scalability(results_dir):
    rows_data: list[tuple[int, float, float, float]] = []

    def run_sweep():
        for n in POPULATIONS:
            deployment = build_ici(
                n, n // CLUSTER_SIZE, replication=1
            )
            _, report = drive(deployment, N_BLOCKS)
            storage = deployment.storage_report()
            traffic_per_node = (
                deployment.network.traffic.total_bytes / n
            )
            latencies = [
                lat
                for block_hash in report.block_hashes
                if (
                    lat := deployment.metrics.finalize_latency(
                        block_hash, deployment.clusters.cluster_count
                    )
                )
                is not None
            ]
            rows_data.append(
                (
                    n,
                    storage.mean_node_bytes,
                    traffic_per_node,
                    statistics.fmean(latencies),
                )
            )

    run_sweep()

    rows = [
        (
            n,
            format_bytes(storage),
            format_bytes(traffic),
            format_seconds(latency),
        )
        for n, storage, traffic, latency in rows_data
    ]
    table = render_table(
        ["N", "storage/node", "traffic/node", "finalize latency"],
        rows,
        title=(
            f"E17  Per-node cost vs network size "
            f"(cluster size {CLUSTER_SIZE}, r=1, {N_BLOCKS} blocks)"
        ),
    )
    emit(results_dir, "e17_scalability", table)

    # Tripling N must not meaningfully grow any per-node cost.
    first, last = rows_data[0], rows_data[-1]
    assert last[1] < 1.3 * first[1], "per-node storage grew with N"
    assert last[2] < 1.6 * first[2], "per-node traffic grew with N"
    assert last[3] < 2.0 * first[3], "finalize latency grew with N"


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    populations = (24, 48)
    blocks = 3
    outputs = []
    for n in populations:
        deployment = build_ici(n, n // CLUSTER_SIZE, replication=1)
        drive(deployment, blocks)
        outputs.append((f"n{n}", deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e17",
    title="per-node cost sweep across populations",
    run=_bench_workload,
)
