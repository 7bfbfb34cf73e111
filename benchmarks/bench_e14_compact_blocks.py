"""E14 (optimization): compact block dissemination over relayed mempools.

When transactions are relayed ahead of block proposal, a holder's mempool
already contains most of the body — so announcing ``header + txid list``
and round-tripping only the missing transactions (coinbase + stragglers)
cuts dissemination traffic well below shipping full bodies.  The BIP-152
idea applied inside ICIStrategy's holder fan-out.
"""

from __future__ import annotations

from benchmarks.conftest import build_ici, emit
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.net.message import MessageKind
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 16
N_CLUSTERS = 4
N_BLOCKS = 8
TXS = 6

#: Message kinds that carry block-dissemination payloads.
DISSEMINATION_KINDS = {MessageKind.BLOCK_BODY, MessageKind.CONTROL}


def run_mode(compact: bool):
    deployment = build_ici(
        N_NODES, N_CLUSTERS, replication=1, compact_blocks=compact
    )
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    runner.produce_blocks_via_relay(N_BLOCKS, txs_per_block=TXS)
    dissemination = deployment.network.traffic.bytes_for_kinds(
        DISSEMINATION_KINDS
    )
    return deployment, dissemination


def test_e14_compact_blocks(results_dir):
    results = {}

    def run_both():
        results["full bodies"] = run_mode(compact=False)
        results["compact"] = run_mode(compact=True)

    run_both()

    baseline = results["full bodies"][1]
    rows = []
    for name, (deployment, dissemination) in results.items():
        rows.append(
            (
                name,
                format_bytes(dissemination / N_BLOCKS),
                f"{100 * dissemination / baseline:.1f}%",
                f"{deployment.compact_stats.hit_rate:.0%}"
                if name == "compact"
                else "-",
                deployment.total_finalized_blocks(),
            )
        )
    table = render_table(
        [
            "mode",
            "dissemination B/block",
            "vs full bodies",
            "mempool hit rate",
            "blocks finalized",
        ],
        rows,
        title=(
            f"E14  Compact-block dissemination "
            f"(N={N_NODES}, relay-driven, {N_BLOCKS} blocks)"
        ),
    )
    emit(results_dir, "e14_compact_blocks", table)

    compact_deployment, compact_bytes = results["compact"]
    assert compact_deployment.total_finalized_blocks() == N_BLOCKS
    assert results["full bodies"][0].total_finalized_blocks() == N_BLOCKS
    # Compact mode cuts dissemination traffic substantially...
    assert compact_bytes < 0.6 * baseline
    # ...because reconstruction mostly hits the mempool.
    assert compact_deployment.compact_stats.hit_rate > 0.5
    # And the ledger is intact either way.
    for view in compact_deployment.clusters.views():
        assert compact_deployment.cluster_holds_full_ledger(
            view.cluster_id
        )


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    blocks = 4
    outputs = []
    for label, compact in (("full-bodies", False), ("compact", True)):
        deployment = build_ici(
            N_NODES, N_CLUSTERS, replication=1, compact_blocks=compact
        )
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        runner.produce_blocks_via_relay(blocks, txs_per_block=TXS)
        outputs.append((label, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e14",
    title="compact vs full-body dissemination over relay",
    run=_bench_workload,
)
