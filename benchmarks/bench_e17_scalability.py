"""E17 (scalability): per-node costs as the network grows.

The paper's motivation is that full replication "is hard to scale": every
node's storage *and* traffic grow with total activity regardless of N.
Under ICIStrategy (fixed cluster size, growing cluster count) per-node
storage stays flat as the population triples, because each cluster's
share of nodes shrinks with N.  Per-node traffic is a node's own
cluster's votes plus header gossip, and the gossip grows: a node
announces each header to all its peers, ``2E/N`` per block.  That is
``m − 1`` in-cluster announces plus ``2(C − 1)/m`` over the ``C(C − 1)``
inter-cluster bridges (two per cluster pair), which grows with C.  The measured traffic is printed beside the exact
model's (:mod:`repro.storage.communication`) and must equal it.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import (
    build_ici,
    drive,
    emit,
    measured_traffic,
    modeled_traffic,
)
from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.bench.workload import BenchWorkload
from repro.net.message import MessageKind

POPULATIONS = (48, 96, 144)
CLUSTER_SIZE = 8
N_BLOCKS = 6


def test_e17_scalability(results_dir):
    rows_data: list[tuple[int, float, float, float, float, float]] = []

    def run_sweep():
        for n in POPULATIONS:
            deployment = build_ici(
                n, n // CLUSTER_SIZE, replication=1
            )
            runner, report = drive(deployment, N_BLOCKS)
            storage = deployment.storage_report()
            measured = measured_traffic(deployment.network.traffic)
            modeled = modeled_traffic(deployment, runner, report)
            assert measured == modeled, "the exact model disagrees"
            traffic_per_node = deployment.network.traffic.total_bytes / n
            model_per_node = sum(size for _, size in modeled.values()) / n
            announces, _ = modeled[MessageKind.BLOCK_ANNOUNCE]
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
                    model_per_node,
                    announces / (n * N_BLOCKS),
                    statistics.fmean(latencies),
                )
            )

    run_sweep()

    rows = [
        (
            n,
            format_bytes(storage),
            f"{format_bytes(traffic)} | {format_bytes(model)}",
            f"{announces:.2f}",
            format_seconds(latency),
        )
        for n, storage, traffic, model, announces, latency in rows_data
    ]
    table = render_table(
        [
            "N",
            "storage/node",
            "traffic/node (sim | model)",
            "announces/node/block (2E/N)",
            "finalize latency",
        ],
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
    assert last[5] < 2.0 * first[5], "finalize latency grew with N"


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
