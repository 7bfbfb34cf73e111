"""E7 (figure): data availability under node failures vs replication.

Paper-implied claim: intra-cluster integrity must survive node churn; the
replication factor r is the knob.  Monte-Carlo over random failure sets,
checked against the exact hypergeometric loss probability, plus a live
simulator scenario (crash holders, retrieve through the query protocol).
"""

from __future__ import annotations

from benchmarks.conftest import build_ici, drive, emit
from repro.analysis.plots import ascii_series
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.chain.block import BlockHeader
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.storage.placement import RendezvousPlacement
from repro.storage.replication import (
    availability_under_failures,
    binomial_failure_probability,
    sample_failure_sets,
)

CLUSTER_SIZE = 12
N_BLOCKS_MC = 200
FAIL_COUNTS = (1, 2, 3, 4, 6)
REPLICATIONS = (1, 2, 3)
MC_SAMPLES = 40


def header_at(height: int) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=sha256(f"h{height}".encode()),
        merkle_root=ZERO_HASH,
        timestamp=float(height),
    )


def test_e7_availability(results_dir):
    members = list(range(CLUSTER_SIZE))
    headers = [header_at(h) for h in range(N_BLOCKS_MC)]
    policy = RendezvousPlacement()
    survival: dict[str, list[float]] = {}
    exact: dict[str, list[float]] = {}

    def run_monte_carlo():
        for r in REPLICATIONS:
            measured = []
            model = []
            for f in FAIL_COUNTS:
                lost = total = 0
                for failed in sample_failure_sets(
                    members, f, MC_SAMPLES, seed=r * 100 + f
                ):
                    report = availability_under_failures(
                        headers, members, r, policy, failed
                    )
                    lost += report.lost_blocks
                    total += report.total_blocks
                measured.append(1.0 - lost / total)
                model.append(
                    1.0 - binomial_failure_probability(CLUSTER_SIZE, r, f)
                )
            survival[f"r={r}"] = measured
            exact[f"r={r}"] = model

    run_monte_carlo()

    rows = []
    for i, f in enumerate(FAIL_COUNTS):
        rows.append(
            (
                f,
                f"{f / CLUSTER_SIZE:.0%}",
                *(
                    f"{survival[f'r={r}'][i]:.4f} "
                    f"(exact {exact[f'r={r}'][i]:.4f})"
                    for r in REPLICATIONS
                ),
            )
        )
    table = render_table(
        ["failed", "fraction", "survival r=1", "survival r=2", "survival r=3"],
        rows,
        title=(
            f"E7  Block survival under member failures "
            f"(cluster size {CLUSTER_SIZE}, {N_BLOCKS_MC} blocks, "
            f"{MC_SAMPLES} trials)"
        ),
    )
    plot = ascii_series(
        list(FAIL_COUNTS),
        {name: values for name, values in survival.items()},
        x_label="failed members",
        y_label="P(block survives)",
    )

    # Live simulator spot-check: crash one holder, block still retrievable
    # with r=2; gone (in-cluster) with r=1.
    live_rows = []
    deployment = build_ici(16, 2, replication=2)
    _, report = drive(deployment, 6)
    target = report.block_hashes[0]
    header = deployment.ledger.store.header(target)
    cluster0 = deployment.nodes[0].cluster_id
    holders = deployment.holders_in_cluster(header, cluster0)
    deployment.network.set_online(holders[0], False)
    requester = next(
        m
        for m in deployment.clusters.members_of(cluster0)
        if m not in holders
    )
    record = deployment.retrieve_block(requester, target)
    deployment.run()
    live_rows.append(
        ("r=2, one holder down", "retrieved", f"{record.attempts} attempts")
    )
    assert record.latency is not None

    emit(
        results_dir,
        "e7_availability",
        f"{table}\n\n{plot}\n\n"
        + render_table(
            ["scenario", "outcome", "detail"],
            live_rows,
            title="Live retrieval under failure",
        ),
    )

    # Shape: higher replication strictly improves survival at every point
    # where loss is possible, and measured tracks the exact model.
    for i, f in enumerate(FAIL_COUNTS):
        assert survival["r=2"][i] >= survival["r=1"][i]
        assert survival["r=3"][i] >= survival["r=2"][i]
        for r in REPLICATIONS:
            assert (
                abs(survival[f"r={r}"][i] - exact[f"r={r}"][i]) < 0.08
            )
    # r=3 survives everything up to f=2 by construction.
    assert survival["r=3"][0] == 1.0
    assert survival["r=3"][1] == 1.0


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    samples = 10
    members = list(range(CLUSTER_SIZE))
    headers = [header_at(h) for h in range(50)]
    policy = RendezvousPlacement()
    for r in REPLICATIONS:
        for f in FAIL_COUNTS:
            for failed in sample_failure_sets(
                members, f, samples, seed=r * 100 + f
            ):
                availability_under_failures(
                    headers, members, r, policy, failed
                )
    deployment = build_ici(16, 2, replication=2)
    drive(deployment, 3)
    return [("ici-r2", deployment)]


WORKLOAD = BenchWorkload(
    bench_id="e7",
    title="availability Monte-Carlo + live r=2 deployment",
    run=_bench_workload,
)
