"""E21 (domains): zone outage vs domain-aware and oblivious placement.

The failure-domain subsystem's acceptance experiment: two seeded
deployments replay an identical clean block stream and then lose the
same whole zone at once (victims resolved through a shared
FailureDomainMap, so the outage is physically identical).  The claims:
the spread-aware arm loses zero cluster/block coverage pairs and
completes every read issued during the outage, the oblivious arm
measurably loses coverage (both replicas of a predictable fraction of
blocks were stacked inside the killed zone), and after heal the aware
arm is zone-diverse within the sweep budget while the oblivious arm's
stacked blocks stay single-zone forever (no mechanism to re-spread).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.sim.domain_compare import (
    ARMS,
    DomainCompareConfig,
    run_domain_compare,
)
from repro.sim.scenario import BENCH_LIMITS

#: The acceptance run: defaults (seed 42, 32 nodes in 4 clusters, r=2,
#: 2 zones, 12 blocks, 16 reads under the outage).
ACCEPT = DomainCompareConfig()


def test_e21_domain_outage(results_dir):
    outcome = run_domain_compare(ACCEPT)

    rows = []
    for name in ARMS:
        row = outcome.arms[name]
        rounds = row["rounds_to_diversity"]
        rows.append(
            (
                name,
                row["blocks_lost"],
                f"{row['reads_completed']}/{row['reads_attempted']}",
                row["reads_degraded"],
                row["repairs_scheduled"],
                row["blocks_re_replicated"],
                row["spread_deficit"],
                "never" if rounds < 0 else f"{rounds} sweeps",
            )
        )
    table = render_table(
        [
            "placement",
            "blocks lost",
            "reads ok",
            "reads degraded",
            "repairs",
            "re-replicated",
            "spread deficit",
            "diversity restored",
        ],
        rows,
        title=(
            f"E21  zone outage: domain-aware vs oblivious placement "
            f"(n={ACCEPT.n_nodes}, r={ACCEPT.replication}, "
            f"zones={ACCEPT.zones}, zone {outcome.zone_killed} killed, "
            f"{len(outcome.victims)} victims)"
        ),
    )
    emit(results_dir, "e21_domain_outage", table)

    # The acceptance criteria, verbatim.
    assert outcome.aware_lossless, outcome.arms.get("aware")
    assert outcome.oblivious_exposed, outcome.arms.get("oblivious")
    assert outcome.diversity_restored, outcome.arms.get("aware")
    assert outcome.arms["aware"]["spread_deficit"] == 0
    assert outcome.arms["oblivious"]["rounds_to_diversity"] == -1


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    config = DomainCompareConfig(
        n_nodes=16, n_clusters=2, n_blocks=6, reads=8
    )
    outcome = run_domain_compare(config, limits=BENCH_LIMITS)
    return [
        (f"domain-{name}", outcome.deployments[name]) for name in ARMS
    ]


WORKLOAD = BenchWorkload(
    bench_id="e21",
    title="Zone outage: domain-aware vs oblivious placement",
    run=_bench_workload,
)
