"""E8 (table): end-to-end throughput — collaborative storage costs nothing.

Paper claim reproduced: "solve the problem of storage limitation and
improve the blockchain performance" — distributing storage must not slow
the pipeline down.  Blocks are produced at a fixed cadence without
draining between them; throughput = transactions finalized everywhere per
virtual second.
"""

from __future__ import annotations

from benchmarks.conftest import (
    build_full,
    build_ici,
    build_rapid,
    emit,
)
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 32
GROUPS = 4
N_BLOCKS = 20
TXS_PER_BLOCK = 8
BLOCK_INTERVAL = 2.0


def pipelined_run(deployment):
    runner = ScenarioRunner(
        deployment, limits=BENCH_LIMITS, block_interval=BLOCK_INTERVAL
    )
    report = runner.produce_blocks(
        N_BLOCKS, txs_per_block=TXS_PER_BLOCK, drain_between_blocks=False
    )
    elapsed = deployment.network.now
    return report, elapsed


def test_e8_throughput(results_dir):
    results: dict[str, tuple[float, float, int]] = {}

    def run_all():
        for name, deployment in (
            ("full", build_full(N_NODES)),
            ("rapidchain", build_rapid(N_NODES, GROUPS)),
            ("ici", build_ici(N_NODES, GROUPS, replication=1)),
        ):
            report, elapsed = pipelined_run(deployment)
            finalized = len(
                {
                    bh
                    for (bh, _cid) in deployment.metrics.cluster_finalized_at
                    if bh in set(report.block_hashes)
                }
            )
            tps = report.transactions_produced / elapsed
            results[name] = (tps, elapsed, finalized)

    run_all()

    rows = [
        (
            name,
            f"{results[name][0]:.2f}",
            f"{results[name][1]:.1f}",
            f"{results[name][2]}/{N_BLOCKS}",
        )
        for name in ("full", "rapidchain", "ici")
    ]
    table = render_table(
        ["strategy", "tx/s (virtual)", "elapsed (s)", "blocks finalized"],
        rows,
        title=(
            f"E8  Pipelined throughput "
            f"(N={N_NODES}, {N_BLOCKS} blocks @ {BLOCK_INTERVAL}s, "
            f"{TXS_PER_BLOCK} tx/block)"
        ),
    )
    emit(results_dir, "e8_throughput", table)

    # Shape: all strategies keep up with the block cadence (bounded by
    # production rate, not storage protocol), and ICI is within 10% of
    # full replication's throughput.
    for name in results:
        assert results[name][2] == N_BLOCKS, f"{name} fell behind"
    assert results["ici"][0] > 0.9 * results["full"][0]


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n_nodes = 16
    groups = 2
    n_blocks = 6
    txs = 4
    outputs = []
    for name, deployment in (
        ("full", build_full(n_nodes)),
        ("rapidchain", build_rapid(n_nodes, groups)),
        ("ici", build_ici(n_nodes, groups, replication=1)),
    ):
        runner = ScenarioRunner(
            deployment, limits=BENCH_LIMITS, block_interval=BLOCK_INTERVAL
        )
        runner.produce_blocks(
            n_blocks, txs_per_block=txs, drain_between_blocks=False
        )
        outputs.append((name, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e8",
    title="pipelined throughput: all strategies, fixed cadence",
    run=_bench_workload,
)
