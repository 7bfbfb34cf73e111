"""E5 (figure): bootstrapping overhead — bytes a joining node downloads.

Paper claim reproduced: "the ICIStrategy could greatly save the overhead
of bootstrapping".  A joining full node downloads the whole ledger; a
RapidChain joiner downloads its committee's shard (D/k); an ICI joiner
downloads every header plus only its assigned bodies (≈ D·r/(m+1)); the
SPV floor is headers only.
"""

from __future__ import annotations

from benchmarks.conftest import (
    build_full,
    build_ici,
    build_rapid,
    drive,
    emit,
)
from repro.analysis.plots import ascii_bars
from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.baselines.spv import spv_bootstrap_bytes
from repro.bench.workload import BenchWorkload

N_NODES = 48
GROUPS = 6          # size-8 committees/clusters
N_BLOCKS = 24


def test_e5_bootstrap(results_dir):
    results: dict[str, tuple[float, float]] = {}

    def run_joins():
        full = build_full(N_NODES)
        drive(full, N_BLOCKS)
        join = full.join_new_node()
        full.run()
        assert join.complete
        results["full"] = (join.total_bytes, join.duration)

        rapid = build_rapid(N_NODES, GROUPS)
        drive(rapid, N_BLOCKS)
        join = rapid.join_new_node()
        rapid.run()
        assert join.complete
        results["rapidchain"] = (join.total_bytes, join.duration)

        ici = build_ici(N_NODES, GROUPS, replication=1)
        drive(ici, N_BLOCKS)
        join = ici.join_new_node()
        ici.run()
        assert join.complete
        results["ici"] = (join.total_bytes, join.duration)

        results["spv floor"] = (
            float(spv_bootstrap_bytes(N_BLOCKS)),
            0.0,
        )

    run_joins()

    order = ["full", "rapidchain", "ici", "spv floor"]
    rows = [
        (
            name,
            format_bytes(results[name][0]),
            f"{100 * results[name][0] / results['full'][0]:.1f}%",
            format_seconds(results[name][1]) if results[name][1] else "-",
        )
        for name in order
    ]
    table = render_table(
        ["strategy", "joiner download", "% of full-node join", "sync time"],
        rows,
        title=(
            f"E5  Bootstrap cost after {N_BLOCKS} blocks "
            f"(N={N_NODES}, group size 8, r=1)"
        ),
    )
    bars = ascii_bars(
        order, [results[name][0] for name in order], unit=" B"
    )
    emit(results_dir, "e5_bootstrap", f"{table}\n\n{bars}")

    # Shape: ici < rapidchain < full; ici beats full by a large factor.
    assert results["ici"][0] < results["rapidchain"][0] < results["full"][0]
    assert results["full"][0] / results["ici"][0] > 3.0
    # And ici is within sight of the SPV floor (headers + its slice).
    assert results["ici"][0] < 6 * results["spv floor"][0] + results[
        "rapidchain"
    ][0]


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n_nodes = 16
    groups = 2
    blocks = 6
    outputs = []
    for name, deployment in (
        ("full", build_full(n_nodes)),
        ("rapidchain", build_rapid(n_nodes, groups)),
        ("ici", build_ici(n_nodes, groups, replication=1)),
    ):
        drive(deployment, blocks)
        deployment.join_new_node()
        deployment.run()
        outputs.append((name, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e5",
    title="bootstrap: drive chain then join a node",
    run=_bench_workload,
)
