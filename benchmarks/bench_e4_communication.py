"""E4 (figure): communication bytes per disseminated block vs network size.

Paper claim reproduced: ICIStrategy cuts dissemination traffic because a
block body travels only to each cluster's ``r`` holders (≈ N·r/m body
transfers) instead of to every node (N transfers under flooding).
Headers still flood everywhere in both, so the saving shows up in body
bytes; RapidChain also ships the body only to one committee but pays the
same header flood.
"""

from __future__ import annotations

from benchmarks.conftest import (
    build_full,
    build_ici,
    build_rapid,
    drive,
    emit,
)
from repro.analysis.plots import ascii_series
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.storage.communication import ici_advantage_factor

POPULATIONS = (24, 48, 72)
GROUP_SIZE = 8
N_BLOCKS = 8


def traffic_per_block(deployment, n_blocks: int) -> float:
    before = deployment.network.traffic.snapshot()
    drive(deployment, n_blocks)
    delta = deployment.network.traffic.snapshot().delta(before)
    return delta.total_bytes / n_blocks


def test_e4_communication(results_dir):
    series: dict[str, list[float]] = {"full": [], "rapidchain": [], "ici": []}

    def run_sweep():
        for n in POPULATIONS:
            groups = n // GROUP_SIZE
            series["full"].append(
                traffic_per_block(build_full(n), N_BLOCKS)
            )
            series["rapidchain"].append(
                traffic_per_block(build_rapid(n, groups), N_BLOCKS)
            )
            series["ici"].append(
                traffic_per_block(
                    build_ici(n, groups, replication=1), N_BLOCKS
                )
            )

    run_sweep()

    rows = [
        (
            n,
            format_bytes(series["full"][i]),
            format_bytes(series["rapidchain"][i]),
            format_bytes(series["ici"][i]),
            f"{series['full'][i] / series['ici'][i]:.1f}x",
        )
        for i, n in enumerate(POPULATIONS)
    ]
    table = render_table(
        ["N", "full B/block", "rapidchain B/block", "ici B/block", "full/ici"],
        rows,
        title=(
            f"E4  Dissemination traffic per block "
            f"(group size {GROUP_SIZE}, r=1, ~6 tx/block)"
        ),
    )
    plot = ascii_series(
        list(POPULATIONS),
        series,
        x_label="network size N",
        y_label="bytes per block",
    )
    # Paper-scale closed forms: the advantage approaches m/r as block
    # bodies dominate (the simulator runs small blocks; real chains ship
    # ~1 MB, where ICI's saving is an order of magnitude larger).
    asymptotic = render_table(
        ["block body", "full/ici advantage (closed form, N=1000, m=16, r=1)"],
        [
            (
                format_bytes(body),
                f"{ici_advantage_factor(1000, 16, 1, body):.1f}x",
            )
            for body in (10_000, 100_000, 1_000_000)
        ],
    )
    emit(
        results_dir,
        "e4_communication",
        f"{table}\n\n{plot}\n\n{asymptotic}",
    )

    # Shape: ICI cheaper than full flooding at every population, and the
    # advantage does not shrink as the network grows.
    for i in range(len(POPULATIONS)):
        assert series["ici"][i] < series["full"][i]
    first_gain = series["full"][0] / series["ici"][0]
    last_gain = series["full"][-1] / series["ici"][-1]
    assert last_gain > first_gain * 0.8


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    populations = (24,)
    blocks = 3
    outputs = []
    for n in populations:
        groups = n // GROUP_SIZE
        for name, deployment in (
            ("full", build_full(n)),
            ("rapidchain", build_rapid(n, groups)),
            ("ici", build_ici(n, groups, replication=1)),
        ):
            drive(deployment, blocks)
            outputs.append((f"{name}-{n}", deployment))
    return outputs


WORKLOAD = BenchWorkload(
    bench_id="e4",
    title="dissemination traffic across populations",
    run=_bench_workload,
)
