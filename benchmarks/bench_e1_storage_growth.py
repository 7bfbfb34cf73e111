"""E1 (figure): per-node storage vs chain length, per strategy.

Paper claim reproduced: under full replication every node's footprint
grows linearly with the ledger; under RapidChain it grows with the shard
(1/k of the ledger); under ICIStrategy it grows with r/m of the ledger —
the flattest curve.  Measured from the simulator at N=48, cross-checked
against the closed forms at the paper's N=1000 scale.
"""

from __future__ import annotations

from benchmarks.conftest import (
    build_full,
    build_ici,
    build_rapid,
    drive,
    emit,
)
from repro.analysis.plots import ascii_series
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.storage.accounting import (
    full_replication_total,
    ici_per_node,
    rapidchain_per_node,
)

N_NODES = 48
N_CLUSTERS = 6          # ICI cluster size 8
N_COMMITTEES = 6        # RapidChain committee size 8
CHECKPOINTS = (5, 10, 15, 20)


def test_e1_storage_growth(results_dir):
    deployments = {
        "full": build_full(N_NODES),
        "rapidchain": build_rapid(N_NODES, N_COMMITTEES),
        "ici": build_ici(N_NODES, N_CLUSTERS, replication=1),
    }
    runners = {}
    series: dict[str, list[float]] = {name: [] for name in deployments}

    def run_experiment():
        from repro.sim.runner import ScenarioRunner
        from repro.sim.scenario import BENCH_LIMITS

        for name, deployment in deployments.items():
            runners[name] = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        produced = 0
        for checkpoint in CHECKPOINTS:
            for name, runner in runners.items():
                runner.produce_blocks(
                    checkpoint - produced, txs_per_block=6
                )
            produced = checkpoint
            for name, deployment in deployments.items():
                series[name].append(
                    deployment.storage_report().mean_node_bytes
                )

    run_experiment()

    rows = [
        (
            blocks,
            format_bytes(series["full"][i]),
            format_bytes(series["rapidchain"][i]),
            format_bytes(series["ici"][i]),
        )
        for i, blocks in enumerate(CHECKPOINTS)
    ]
    table = render_table(
        ["blocks", "full/node", "rapidchain/node", "ici/node"],
        rows,
        title=(
            f"E1  Per-node storage growth "
            f"(N={N_NODES}, cluster/committee size 8, r=1)"
        ),
    )
    plot = ascii_series(
        list(CHECKPOINTS),
        {name: values for name, values in series.items()},
        x_label="blocks",
        y_label="mean bytes/node",
    )
    analytic = render_table(
        ["strategy", "per-node closed form @ N=1000, D=2GB"],
        [
            ("full", format_bytes(2e9)),
            ("rapidchain (g=250)", format_bytes(rapidchain_per_node(1000, 250, 2e9))),
            ("ici (m=16, r=1)", format_bytes(ici_per_node(16, 1, 2e9))),
            ("ici (m=250, r=1)", format_bytes(ici_per_node(250, 1, 2e9))),
        ],
    )
    emit(results_dir, "e1_storage_growth", f"{table}\n\n{plot}\n\n{analytic}")

    # Shape assertions: linear full growth; ICI flattest at every point.
    for i in range(len(CHECKPOINTS)):
        assert series["ici"][i] < series["rapidchain"][i] < series["full"][i]
    growth_full = series["full"][-1] / series["full"][0]
    assert growth_full > 2.5  # roughly linear in block count
    # Sanity: measured full-replication total matches N × ledger bytes.
    full_total = deployments["full"].storage_report().total_bytes
    per_node = full_total / N_NODES
    assert full_total == full_replication_total(N_NODES, per_node)


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n_nodes = 24
    groups = 3
    n_blocks = 6
    outputs = []
    for name, deployment in (
        ("full", build_full(n_nodes)),
        ("rapidchain", build_rapid(n_nodes, groups)),
        ("ici", build_ici(n_nodes, groups, replication=1)),
    ):
        drive(deployment, n_blocks)
        outputs.append((name, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e1",
    title="storage growth: drive all three strategies",
    run=_bench_workload,
)
