"""E6 (figure): intra-cluster verification latency vs cluster size.

Paper claim reproduced: collaborative verification keeps block
finalization fast — latency grows slowly with cluster size because only
``r`` holders do the expensive body validation while everyone else
exchanges constant-size votes.  Also ablates vote aggregation (O(m)
messages through an aggregator) against all-to-all commit broadcast
(O(m²)).
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import build_ici, drive, emit
from repro.analysis.plots import ascii_series
from repro.analysis.tables import format_seconds, render_table
from repro.bench.workload import BenchWorkload

N_NODES = 64
CLUSTER_SIZES = (4, 8, 16, 32)
N_BLOCKS = 6


def mean_finalize_latency(deployment, block_hashes) -> float:
    latencies = [
        deployment.metrics.finalize_latency(
            block_hash, deployment.clusters.cluster_count
        )
        for block_hash in block_hashes
    ]
    return statistics.fmean([lat for lat in latencies if lat is not None])


def test_e6_verification_latency(results_dir):
    aggregated: list[float] = []
    broadcast: list[float] = []
    messages_agg: list[int] = []
    messages_bcast: list[int] = []

    def run_sweep():
        for cluster_size in CLUSTER_SIZES:
            groups = N_NODES // cluster_size
            agg = build_ici(
                N_NODES, groups, replication=1, aggregate_votes=True
            )
            _, report = drive(agg, N_BLOCKS)
            aggregated.append(mean_finalize_latency(agg, report.block_hashes))
            messages_agg.append(agg.network.traffic.total_messages)

            bcast = build_ici(
                N_NODES, groups, replication=1, aggregate_votes=False
            )
            _, report = drive(bcast, N_BLOCKS)
            broadcast.append(
                mean_finalize_latency(bcast, report.block_hashes)
            )
            messages_bcast.append(bcast.network.traffic.total_messages)

    run_sweep()

    rows = [
        (
            m,
            format_seconds(aggregated[i]),
            format_seconds(broadcast[i]),
            messages_agg[i],
            messages_bcast[i],
        )
        for i, m in enumerate(CLUSTER_SIZES)
    ]
    table = render_table(
        [
            "cluster size m",
            "latency (aggregated)",
            "latency (broadcast)",
            "msgs (agg)",
            "msgs (bcast)",
        ],
        rows,
        title=(
            f"E6  Block finalization latency vs cluster size "
            f"(N={N_NODES}, r=1, {N_BLOCKS} blocks)"
        ),
    )
    plot = ascii_series(
        list(CLUSTER_SIZES),
        {"aggregated": aggregated, "broadcast": broadcast},
        x_label="cluster size m",
        y_label="finalize latency (s)",
    )
    emit(results_dir, "e6_verification_latency", f"{table}\n\n{plot}")

    # Shape: latency stays bounded (sub-linear in m) — the largest
    # cluster is not 8x slower than the smallest despite being 8x bigger.
    assert max(aggregated) < 4 * min(aggregated)
    # Aggregation sends far fewer messages at large m.
    assert messages_bcast[-1] > 1.5 * messages_agg[-1]


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n_nodes = 16
    sizes = (4, 8)
    blocks = 3
    outputs = []
    for cluster_size in sizes:
        deployment = build_ici(
            n_nodes,
            n_nodes // cluster_size,
            replication=1,
            aggregate_votes=True,
        )
        drive(deployment, blocks)
        outputs.append((f"agg-m{cluster_size}", deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e6",
    title="verification latency: cluster-size sweep (aggregated)",
    run=_bench_workload,
)
