"""E15 (deployability): latency-aware clustering without an oracle.

E10 showed coordinate-aware clustering cuts retrieval latency — but a
real deployment has no coordinate oracle, only measured latencies.  This
bench estimates coordinates with Vivaldi spring relaxation from latency
samples and re-runs the E10 comparison: random vs true-coordinate k-means
vs Vivaldi-coordinate k-means.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import emit
from repro.analysis.tables import format_seconds, render_table
from repro.bench.workload import BenchWorkload
from repro.clustering.coordinates import place_regions
from repro.clustering.vivaldi import VivaldiEstimator, embedding_quality
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.net.latency import CoordinateLatency
from repro.net.network import Network
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 40
N_CLUSTERS = 5
N_BLOCKS = 8


def retrieval_latency(deployment, block_hashes) -> float:
    latencies = []
    for block_hash in block_hashes[:4]:
        header = deployment.ledger.store.header(block_hash)
        for view in deployment.clusters.views():
            holders = set(
                deployment.holders_in_cluster(header, view.cluster_id)
            )
            for requester in [
                m for m in view.members if m not in holders
            ][:3]:
                record = deployment.retrieve_block(requester, block_hash)
                deployment.run()
                if record.latency is not None:
                    latencies.append(record.latency)
    return statistics.fmean(latencies)


def run_variant(clustering: str, coordinates) -> float:
    true_points = place_regions(N_NODES, n_regions=N_CLUSTERS, seed=13)
    deployment = ICIDeployment(
        N_NODES,
        config=ICIConfig(
            n_clusters=N_CLUSTERS,
            replication=1,
            clustering=clustering,
            limits=BENCH_LIMITS,
            seed=13,
        ),
        network=Network(latency=CoordinateLatency(true_points)),
        coordinates=coordinates,
    )
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    report = runner.produce_blocks(N_BLOCKS, txs_per_block=5)
    return retrieval_latency(deployment, report.block_hashes)


def test_e15_vivaldi_clustering(results_dir):
    results: dict[str, float] = {}
    quality = {}

    def run_all():
        true_points = place_regions(
            N_NODES, n_regions=N_CLUSTERS, seed=13
        )
        model = CoordinateLatency(true_points)
        estimator = VivaldiEstimator(N_NODES, seed=13)
        estimated = estimator.estimate_from_model(model, rounds=40)
        quality["median_error"] = embedding_quality(
            model, estimated, range(N_NODES), seed=13
        )
        results["random"] = run_variant("random", None)
        results["kmeans (true coords)"] = run_variant(
            "kmeans", list(true_points)
        )
        results["kmeans (vivaldi)"] = run_variant(
            "kmeans", list(estimated)
        )

    run_all()

    baseline = results["random"]
    rows = [
        (name, format_seconds(latency), f"{100 * latency / baseline:.1f}%")
        for name, latency in results.items()
    ]
    table = render_table(
        ["clustering input", "mean retrieval latency", "% of random"],
        rows,
        title=(
            f"E15  Clustering on measured (Vivaldi) coordinates "
            f"(N={N_NODES}, {N_CLUSTERS} regions; embedding median "
            f"error {quality['median_error']:.1%})"
        ),
    )
    emit(results_dir, "e15_vivaldi_clustering", table)

    # Vivaldi clustering beats random and recovers most of the oracle win.
    assert results["kmeans (vivaldi)"] < results["random"]
    oracle_gain = baseline - results["kmeans (true coords)"]
    vivaldi_gain = baseline - results["kmeans (vivaldi)"]
    assert vivaldi_gain > 0.5 * oracle_gain
    assert quality["median_error"] < 0.2


# ------------------------------------------------------ drift-gate kernel
def _workload_variant(clustering, coordinates, blocks):
    true_points = place_regions(N_NODES, n_regions=N_CLUSTERS, seed=13)
    deployment = ICIDeployment(
        N_NODES,
        config=ICIConfig(
            n_clusters=N_CLUSTERS,
            replication=1,
            clustering=clustering,
            limits=BENCH_LIMITS,
            seed=13,
        ),
        network=Network(latency=CoordinateLatency(true_points)),
        coordinates=coordinates,
    )
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    report = runner.produce_blocks(blocks, txs_per_block=5)
    retrieval_latency(deployment, report.block_hashes)
    return deployment


def _bench_workload():
    blocks = 3
    true_points = place_regions(N_NODES, n_regions=N_CLUSTERS, seed=13)
    estimated = VivaldiEstimator(N_NODES, seed=13).estimate_from_model(
        CoordinateLatency(true_points), rounds=10
    )
    return [
        ("random", _workload_variant("random", None, blocks)),
        ("vivaldi", _workload_variant("kmeans", list(estimated), blocks)),
    ]


WORKLOAD = BenchWorkload(
    bench_id="e15",
    title="vivaldi embedding + clustered retrieval",
    run=_bench_workload,
)
