"""E16 (security): Byzantine tolerance of collaborative verification.

Collaborative verification has **two vote layers** with separate
thresholds:

* the commit layer tolerates ``f = ⌊(m−1)/3⌋`` liars cluster-wide;
* the prepare layer needs an honest **majority of each block's r
  holders**, i.e. full tolerance of ``f`` liars requires ``r ≥ 2f + 1``.

This bench sweeps lying members for r=3 (holder majority breaks when
both liars land in one 3-holder set) and r=5 (``2f+1`` at f=2: immune),
in one cluster of 7 (quorum 5).  The failure mode past either threshold
is *safe*: valid blocks get refused; invalid ones are never accepted.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.consensus.quorum import byzantine_quorum, max_byzantine_tolerated
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS

CLUSTER_SIZE = 7
N_BLOCKS = 6
LIAR_COUNTS = (0, 1, 2, 3, 4)
REPLICATIONS = (3, 5)


def run_with_liars(n_liars: int, replication: int) -> float:
    deployment = ICIDeployment(
        CLUSTER_SIZE,
        config=ICIConfig(
            n_clusters=1, replication=replication, limits=BENCH_LIMITS
        ),
    )
    deployment.byzantine = {
        CLUSTER_SIZE - 1 - index: "vote_reject"
        for index in range(n_liars)
    }
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    report = runner.produce_blocks(N_BLOCKS, txs_per_block=3)
    accepted = sum(
        block_hash not in deployment.metrics.blocks_rejected
        for block_hash in report.block_hashes
    )
    return accepted / N_BLOCKS


def test_e16_byzantine_tolerance(results_dir):
    acceptance: dict[tuple[int, int], float] = {}

    def run_sweep():
        for replication in REPLICATIONS:
            for n_liars in LIAR_COUNTS:
                acceptance[(replication, n_liars)] = run_with_liars(
                    n_liars, replication
                )

    run_sweep()

    f = max_byzantine_tolerated(CLUSTER_SIZE)
    rows = [
        (
            n_liars,
            f"{acceptance[(3, n_liars)]:.0%}",
            f"{acceptance[(5, n_liars)]:.0%}",
            "≤ f" if n_liars <= f else "beyond f",
        )
        for n_liars in LIAR_COUNTS
    ]
    table = render_table(
        [
            "lying members",
            "accepted (r=3)",
            "accepted (r=5 = 2f+1)",
            "regime",
        ],
        rows,
        title=(
            f"E16  Byzantine tolerance (m={CLUSTER_SIZE}, "
            f"quorum {byzantine_quorum(CLUSTER_SIZE)}, f={f})"
        ),
    )
    emit(results_dir, "e16_byzantine_tolerance", table)

    # r = 2f+1 gives full tolerance up to f liars at both layers.
    for n_liars in LIAR_COUNTS:
        if n_liars <= f:
            assert acceptance[(5, n_liars)] == 1.0
    # r=3 survives one liar everywhere but can lose blocks at two liars
    # (when both land in one holder set) — never below the commit layer.
    assert acceptance[(3, 0)] == 1.0
    assert acceptance[(3, 1)] == 1.0
    assert acceptance[(3, 2)] <= 1.0
    # Beyond f, the commit layer refuses valid blocks (safe direction).
    for replication in REPLICATIONS:
        assert acceptance[(replication, 3)] < 1.0
        assert acceptance[(replication, 4)] < 1.0


# ------------------------------------------------------ drift-gate kernel
def _workload_run(n_liars: int, replication: int, blocks: int):
    deployment = ICIDeployment(
        CLUSTER_SIZE,
        config=ICIConfig(
            n_clusters=1, replication=replication, limits=BENCH_LIMITS
        ),
    )
    deployment.byzantine = {
        CLUSTER_SIZE - 1 - index: "vote_reject"
        for index in range(n_liars)
    }
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    runner.produce_blocks(blocks, txs_per_block=3)
    return deployment


def _bench_workload():
    return [
        (f"r3-liars{n_liars}", _workload_run(n_liars, replication=3, blocks=3))
        for n_liars in (0, 2)
    ]


WORKLOAD = BenchWorkload(
    bench_id="e16",
    title="byzantine vote sweep in one cluster",
    run=_bench_workload,
)
