"""E19 (archival): Reed–Solomon cold tier vs adaptive-only replication.

The archival tier's acceptance experiment: two same-seed deployments —
both heat-aware adaptive, one additionally archiving cold blocks as
3+1 GF(256) Reed–Solomon chunk sets — replay an identical block stream
and an identical Zipf-skewed read stream at ``r = 3``.  The claim:
total stored bytes (replicas plus chunks) drop by >= 10% against the
adaptive-only bill, every query still completes (cold reads decode
lazily through the failover tail), and no audit round ever finds a
cluster unable to produce a block or an archived block below its coded
floor.
"""

from __future__ import annotations

from dataclasses import replace

from benchmarks.conftest import emit
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.scenario import BENCH_LIMITS
from repro.sim.tiered_compare import E19, run_tiered_compare

#: The acceptance run: defaults (seed 42, 18 nodes / 3 clusters, r=3,
#: 16 blocks, 150 Zipf reads over 6 convergence rounds, 3+1 code).
ACCEPT = E19


def test_e19_archival_coding(results_dir):
    outcome = run_tiered_compare(ACCEPT)

    stats = outcome.archival_stats
    adaptive, coded = outcome.baseline, outcome.treatment
    rows = [
        (
            "adaptive only",
            format_bytes(adaptive.bytes),
            "-",
            f"{adaptive.p95_latency * 1000:.1f} ms",
            adaptive.queries_completed,
            "-",
            "-",
        ),
        (
            "adaptive + archival",
            format_bytes(coded.bytes),
            f"{outcome.savings_fraction:.1%}",
            f"{coded.p95_latency * 1000:.1f} ms",
            coded.queries_completed,
            outcome.archived_blocks,
            format_bytes(stats.get("chunk_bytes_read", 0)),
        ),
    ]
    table = render_table(
        [
            "scheme",
            "total stored bytes",
            "savings",
            "p95 query latency",
            "queries completed",
            "archived blocks",
            "chunk bytes read",
        ],
        rows,
        title=(
            f"E19  Archival coding (N={ACCEPT.n_nodes}, "
            f"r={ACCEPT.replication}, {ACCEPT.n_blocks} blocks, "
            f"{ACCEPT.reads} Zipf reads, 3+1 code)"
        ),
    )
    emit(results_dir, "e19_archival_coding", table)

    # The acceptance criteria, verbatim.
    assert coded.bytes < adaptive.bytes
    assert outcome.savings_fraction >= 0.10, outcome.savings_fraction
    assert outcome.reads_ok, (
        coded.queries_completed,
        adaptive.queries_completed,
    )
    assert outcome.converged_safely
    assert outcome.coverage_breaches == 0
    assert outcome.floor_breaches == 0
    assert stats["blocks_archived"] > 0
    assert stats["reconstructions"] > 0
    assert stats["failed_reconstructions"] == 0


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    config = replace(ACCEPT, n_blocks=8, reads=60, rounds=4)
    outcome = run_tiered_compare(config, limits=BENCH_LIMITS)
    return [(name, arm.deployment) for name, arm in outcome.arms.items()]


WORKLOAD = BenchWorkload(
    bench_id="e19",
    title="Reed-Solomon archival tier vs adaptive-only",
    run=_bench_workload,
)
