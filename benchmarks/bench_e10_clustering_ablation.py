"""E10 (ablation): clustering algorithm — intra-cluster retrieval latency.

Design choice called out in DESIGN.md: under a geographic latency model,
latency-aware cluster formation (k-means / greedy growth over network
coordinates) puts a block's holders close to the members that will fetch
from them, cutting retrieval latency versus random balanced clusters.
Random remains the default because its storage math is exact and
membership is not attacker-choosable; this bench quantifies what that
choice costs.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import emit
from repro.analysis.tables import format_seconds, render_table
from repro.bench.workload import BenchWorkload
from repro.clustering.coordinates import place_regions
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.net.latency import CoordinateLatency
from repro.net.network import Network
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 40
N_CLUSTERS = 5
N_BLOCKS = 8
QUERIES_PER_CLUSTER = 4


def build(clustering: str):
    coordinates = place_regions(N_NODES, n_regions=N_CLUSTERS, seed=3)
    network = Network(latency=CoordinateLatency(coordinates))
    deployment = ICIDeployment(
        N_NODES,
        config=ICIConfig(
            n_clusters=N_CLUSTERS,
            replication=1,
            clustering=clustering,
            limits=BENCH_LIMITS,
            seed=3,
        ),
        network=network,
        coordinates=coordinates,
    )
    return deployment


def measure_retrieval(deployment, block_hashes) -> float:
    latencies = []
    for block_hash in block_hashes:
        header = deployment.ledger.store.header(block_hash)
        for view in deployment.clusters.views():
            holders = set(
                deployment.holders_in_cluster(header, view.cluster_id)
            )
            requesters = [
                m for m in view.members if m not in holders
            ][:QUERIES_PER_CLUSTER]
            for requester in requesters:
                record = deployment.retrieve_block(requester, block_hash)
                deployment.run()
                if record.latency is not None:
                    latencies.append(record.latency)
    return statistics.fmean(latencies)


def test_e10_clustering_ablation(results_dir):
    results: dict[str, float] = {}

    def run_ablation():
        for clustering in ("random", "kmeans", "latency"):
            deployment = build(clustering)
            runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
            report = runner.produce_blocks(N_BLOCKS, txs_per_block=5)
            results[clustering] = measure_retrieval(
                deployment, report.block_hashes[:4]
            )

    run_ablation()

    baseline = results["random"]
    rows = [
        (
            name,
            format_seconds(latency),
            f"{100 * latency / baseline:.1f}%",
        )
        for name, latency in results.items()
    ]
    table = render_table(
        ["clustering", "mean retrieval latency", "% of random"],
        rows,
        title=(
            f"E10  Clustering ablation under geographic latency "
            f"(N={N_NODES}, {N_CLUSTERS} regions/clusters)"
        ),
    )
    emit(results_dir, "e10_clustering_ablation", table)

    # Shape: coordinate-aware clusterings beat random formation.
    assert results["kmeans"] < results["random"]
    assert results["latency"] < results["random"]


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    variants = ("random", "kmeans")
    blocks = 3
    outputs = []
    for clustering in variants:
        deployment = build(clustering)
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        report = runner.produce_blocks(blocks, txs_per_block=5)
        measure_retrieval(deployment, report.block_hashes[:2])
        outputs.append((clustering, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e10",
    title="clustering ablation with retrieval queries",
    run=_bench_workload,
)
