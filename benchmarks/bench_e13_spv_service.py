"""E13 (service): SPV payment proofs served by clusters.

The intra-cluster integrity property means *any* cluster can serve any
inclusion proof.  This bench measures the thin-client economics: proof
size grows O(log n_tx) while the block body grows O(n_tx), and the
end-to-end check latency stays a couple of network hops.
"""

from __future__ import annotations

import statistics

from benchmarks.conftest import build_ici, emit
from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 20
N_CLUSTERS = 4
TX_COUNTS = (4, 16, 64)


def test_e13_spv_service(results_dir):
    rows = []
    measured: list[tuple[int, float, float, float]] = []

    def run_service():
        for txs in TX_COUNTS:
            deployment = build_ici(N_NODES, N_CLUSTERS, replication=1)
            runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
            # Several funding rounds so `txs` transfers are available.
            report = runner.produce_blocks(6, txs_per_block=txs)
            light = deployment.attach_light_client()
            block = max(report.blocks, key=lambda b: len(b.transactions))
            latencies, proof_sizes = [], []
            for tx in block.transactions[: min(8, len(block.transactions))]:
                record = deployment.spv_check(
                    light.node_id, block.block_hash, tx.txid
                )
                deployment.run()
                assert record.verified is True
                latencies.append(record.latency)
                proof_sizes.append(record.proof_bytes)
            measured.append(
                (
                    len(block.transactions),
                    statistics.fmean(proof_sizes),
                    float(block.body_size_bytes),
                    statistics.fmean(latencies),
                )
            )

    run_service()

    for n_tx, proof, body, latency in measured:
        rows.append(
            (
                n_tx,
                format_bytes(proof),
                format_bytes(body),
                f"{body / proof:.0f}x",
                format_seconds(latency),
            )
        )
    table = render_table(
        [
            "txs in block",
            "mean proof",
            "full body",
            "saving",
            "check latency",
        ],
        rows,
        title=(
            f"E13  SPV proof service (N={N_NODES}, "
            f"{N_CLUSTERS} clusters, headers-only client)"
        ),
    )
    emit(results_dir, "e13_spv_service", table)

    # Shape: proofs grow logarithmically — body/proof ratio widens with
    # block size; latency stays bounded (a few hops).
    ratios = [body / proof for _, proof, body, _ in measured]
    assert ratios[-1] > ratios[0]
    assert all(latency < 1.0 for *_rest, latency in measured)


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    tx_counts = (4, 16)
    outputs = []
    for txs in tx_counts:
        deployment = build_ici(N_NODES, N_CLUSTERS, replication=1)
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        report = runner.produce_blocks(6, txs_per_block=txs)
        light = deployment.attach_light_client()
        block = max(report.blocks, key=lambda b: len(b.transactions))
        for tx in block.transactions[:4]:
            deployment.spv_check(light.node_id, block.block_hash, tx.txid)
            deployment.run()
        outputs.append((f"txs{txs}", deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e13",
    title="SPV proof service over growing blocks",
    run=_bench_workload,
)
