"""E18 (adaptive): heat-aware replication vs fixed-r under Zipf reads.

The adaptive subsystem's acceptance experiment: two same-seed
deployments replay an identical block stream and an identical
Zipf-skewed read stream; the adaptive one tracks access heat, grants
hot blocks extra replicas, and sheds surplus cold copies through the
anti-entropy sweep.  The claim: total ledger bytes drop by >= 15% while
p95 query latency stays equal or better, and no block ever dips below
its replica floor while placements converge.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import emit
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.scenario import BENCH_LIMITS
from repro.sim.tiered_compare import E18, run_tiered_compare
from repro.sim.workload import ZIPF_EXPONENT

#: The acceptance run: defaults (seed 42, 18 nodes / 3 clusters, r=2,
#: 16 blocks, 150 Zipf reads over 6 convergence rounds).
ACCEPT = E18


def test_e18_adaptive_replication(results_dir):
    outcome = run_tiered_compare(ACCEPT)
    fixed, adaptive = outcome.baseline, outcome.treatment

    rows = [
        (
            "fixed r=2",
            format_bytes(fixed.bytes),
            "-",
            f"{fixed.p95_latency * 1000:.1f} ms",
            fixed.queries_completed,
            "-",
        ),
        (
            "adaptive",
            format_bytes(adaptive.bytes),
            f"{outcome.savings_fraction:.1%}",
            f"{adaptive.p95_latency * 1000:.1f} ms",
            adaptive.queries_completed,
            "/".join(
                str(outcome.tier_counts.get(tier, 0))
                for tier in ("hot", "warm", "cold")
            ),
        ),
    ]
    table = render_table(
        [
            "scheme",
            "total ledger bytes",
            "savings",
            "p95 query latency",
            "queries completed",
            "hot/warm/cold",
        ],
        rows,
        title=(
            f"E18  Adaptive replication (N={ACCEPT.n_nodes}, "
            f"r={ACCEPT.replication}, {ACCEPT.n_blocks} blocks, "
            f"{ACCEPT.reads} Zipf reads, s={ZIPF_EXPONENT})"
        ),
    )
    emit(results_dir, "e18_adaptive_replication", table)

    # The acceptance criteria, verbatim.
    assert outcome.savings_fraction >= 0.15, outcome.savings_fraction
    assert outcome.latency_ok, (adaptive.p95_latency, fixed.p95_latency)
    assert outcome.converged_safely
    assert outcome.adaptive_stats["floor_violations"] == 0
    assert outcome.adaptive_stats["replicas_shed"] > 0


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    config = replace(ACCEPT, n_blocks=8, reads=60, rounds=4)
    outcome = run_tiered_compare(config, limits=BENCH_LIMITS)
    return [(name, arm.deployment) for name, arm in outcome.arms.items()]


WORKLOAD = BenchWorkload(
    bench_id="e18",
    title="heat-aware adaptive replication vs fixed-r",
    run=_bench_workload,
)
