"""E3 (figure): per-node storage vs cluster size — the 1/m decay.

Paper claim reproduced: a cluster member's body footprint is ``D·r/m``;
doubling the cluster size halves per-node storage.  Swept in the
simulator at N=60 and checked against the closed form at every point.
"""

from __future__ import annotations

from benchmarks.conftest import build_ici, drive, emit
from repro.analysis.plots import ascii_series
from repro.analysis.stats import relative_error
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.storage.accounting import ici_per_node

N_NODES = 60
SWEEP = (
    (30, 2),   # n_clusters=30 → m=2
    (12, 5),   # m=5
    (6, 10),   # m=10
    (3, 20),   # m=20
    (2, 30),   # m=30
)
N_BLOCKS = 12


def test_e3_cluster_size_sweep(results_dir):
    measured: list[tuple[int, float, float]] = []

    def run_sweep():
        for n_clusters, cluster_size in SWEEP:
            deployment = build_ici(N_NODES, n_clusters, replication=1)
            drive(deployment, N_BLOCKS)
            report = deployment.storage_report()
            body_mean = sum(
                r.body_bytes for r in report.per_node
            ) / report.node_count
            ledger_bodies = sum(
                deployment.ledger.store.body(h.block_hash).body_size_bytes
                for h in deployment.ledger.store.iter_active_headers()
            )
            measured.append((cluster_size, body_mean, ledger_bodies))

    run_sweep()

    rows = []
    xs, sim_series, model_series = [], [], []
    for cluster_size, body_mean, ledger_bodies in measured:
        expected = ici_per_node(cluster_size, 1, ledger_bodies)
        rows.append(
            (
                cluster_size,
                format_bytes(body_mean),
                format_bytes(expected),
                f"{100 * body_mean / ledger_bodies:.1f}%",
            )
        )
        xs.append(cluster_size)
        sim_series.append(body_mean)
        model_series.append(expected)

    table = render_table(
        ["cluster size m", "measured bytes/node", "model D·r/m", "% of ledger"],
        rows,
        title=f"E3  Per-node body storage vs cluster size (N={N_NODES}, r=1)",
    )
    plot = ascii_series(
        xs,
        {"measured": sim_series, "model": model_series},
        x_label="cluster size m",
        y_label="bytes/node",
    )
    emit(results_dir, "e3_cluster_size_sweep", f"{table}\n\n{plot}")

    # Shape: monotonically decreasing, and each point within 15% of D/m.
    for i in range(1, len(sim_series)):
        assert sim_series[i] < sim_series[i - 1]
    for (cluster_size, body_mean, ledger_bodies) in measured:
        assert (
            relative_error(
                body_mean, ici_per_node(cluster_size, 1, ledger_bodies)
            )
            < 0.15
        )


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n_nodes = 20
    sweep = ((10, 2), (2, 10))
    blocks = 4
    outputs = []
    for n_clusters, cluster_size in sweep:
        deployment = build_ici(n_nodes, n_clusters, replication=1)
        drive(deployment, blocks)
        outputs.append((f"m={cluster_size}", deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e3",
    title="cluster size sweep: 1/m storage decay",
    run=_bench_workload,
)
