"""E12 (endurance): intra-cluster integrity under sustained churn.

The strategy's core invariant — every cluster collectively holds the
whole ledger — must hold while nodes continuously join, leave, and crash.
This bench runs a mixed churn schedule against replication r=2 and
r=1+parity and measures event costs, losses, and integrity violations.
"""

from __future__ import annotations

from benchmarks.conftest import build_ici, emit
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.churn import ChurnConfig, ChurnDriver
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

N_NODES = 24
N_CLUSTERS = 3
N_BLOCKS = 18
CHURN = ChurnConfig(
    join_rate=0.30, leave_rate=0.15, crash_rate=0.15, seed=7
)


def run_endurance(**ici_kwargs):
    deployment = build_ici(N_NODES, N_CLUSTERS, **ici_kwargs)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    driver = ChurnDriver(deployment, runner, CHURN)
    outcome = driver.run(N_BLOCKS, txs_per_block=4)
    if deployment.parity is not None:
        deployment.parity.flush(deployment)
    return deployment, outcome


def test_e12_churn_endurance(results_dir):
    outcomes = {}

    def run_all():
        outcomes["r=2"] = run_endurance(replication=2)
        outcomes["r=1 + parity k=4"] = run_endurance(
            replication=1, parity_group_size=4
        )

    run_all()

    rows = []
    for name, (deployment, outcome) in outcomes.items():
        rows.append(
            (
                name,
                f"{outcome.joins}/{outcome.leaves}/{outcome.crashes}",
                format_bytes(outcome.bootstrap_bytes),
                format_bytes(outcome.repair_bytes),
                outcome.lost_blocks,
                outcome.integrity_violations,
                deployment.node_count,
            )
        )
    table = render_table(
        [
            "scheme",
            "joins/leaves/crashes",
            "bootstrap bytes",
            "repair bytes",
            "lost blocks",
            "integrity violations",
            "final population",
        ],
        rows,
        title=(
            f"E12  Churn endurance "
            f"(N={N_NODES} start, {N_BLOCKS} blocks, mixed churn)"
        ),
    )
    emit(results_dir, "e12_churn_endurance", table)

    for name, (deployment, outcome) in outcomes.items():
        assert outcome.joins + outcome.leaves + outcome.crashes >= 4, name
        assert outcome.lost_blocks == 0, name
        assert outcome.integrity_violations == 0, name
        # Integrity still holds globally at the end.
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    blocks = 8
    outputs = []
    for label, kwargs in (
        ("r2", dict(replication=2)),
        ("parity", dict(replication=1, parity_group_size=4)),
    ):
        deployment = build_ici(N_NODES, N_CLUSTERS, **kwargs)
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        ChurnDriver(deployment, runner, CHURN).run(blocks, txs_per_block=4)
        if deployment.parity is not None:
            deployment.parity.flush(deployment)
        outputs.append((label, deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e12",
    title="churn endurance under mixed join/leave/crash",
    run=_bench_workload,
)
