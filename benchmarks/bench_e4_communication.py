"""E4 (figure): communication bytes per disseminated block vs network size.

Paper claim reproduced: ICIStrategy cuts dissemination traffic because a
block body travels only to each cluster's ``r`` holders (``r·C`` body
transfers) instead of to every node (N − 1 transfers under flooding).
Headers still flood everywhere in both, so the saving shows up in body
bytes; RapidChain also ships the body only to one committee but pays the
same header flood.  Every measured figure is printed beside the exact
model's (:mod:`repro.storage.communication`) and must equal it.
"""

from __future__ import annotations

from benchmarks.conftest import (
    build_full,
    build_ici,
    build_rapid,
    drive,
    emit,
    measured_traffic,
    modeled_traffic,
)
from repro.analysis.plots import ascii_series
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.core.config import ICIConfig
from repro.storage.communication import ici_advantage_factor

POPULATIONS = (24, 48, 72)
GROUP_SIZE = 8
N_BLOCKS = 8
STRATEGIES = ("full", "rapidchain", "ici")


def traffic_per_block(deployment) -> tuple[float, float]:
    """(measured, modeled) bytes per block of ``N_BLOCKS`` clean blocks."""
    runner, report = drive(deployment, N_BLOCKS)
    measured = measured_traffic(deployment.network.traffic)
    modeled = modeled_traffic(deployment, runner, report)
    assert measured == modeled, "the exact model disagrees with the run"
    return tuple(
        sum(size for _, size in table.values()) / N_BLOCKS
        for table in (measured, modeled)
    )


def test_e4_communication(results_dir):
    measured: dict[str, list[float]] = {name: [] for name in STRATEGIES}
    modeled: dict[str, list[float]] = {name: [] for name in STRATEGIES}

    def run_sweep():
        for n in POPULATIONS:
            groups = n // GROUP_SIZE
            for name, deployment in (
                ("full", build_full(n)),
                ("rapidchain", build_rapid(n, groups)),
                ("ici", build_ici(n, groups, replication=1)),
            ):
                sim, model = traffic_per_block(deployment)
                measured[name].append(sim)
                modeled[name].append(model)

    run_sweep()

    rows = [
        (
            n,
            *(
                f"{format_bytes(measured[name][i])} | "
                f"{format_bytes(modeled[name][i])}"
                for name in STRATEGIES
            ),
            f"{measured['full'][i] / measured['ici'][i]:.1f}x",
        )
        for i, n in enumerate(POPULATIONS)
    ]
    table = render_table(
        [
            "N",
            "full B/block (sim | model)",
            "rapidchain B/block (sim | model)",
            "ici B/block (sim | model)",
            "full/ici",
        ],
        rows,
        title=(
            f"E4  Dissemination traffic per block "
            f"(group size {GROUP_SIZE}, r=1, ~6 tx/block)"
        ),
    )
    plot = ascii_series(
        list(POPULATIONS),
        measured,
        x_label="network size N",
        y_label="bytes per block",
    )
    # Paper scale from the exact model: the advantage approaches m/r as
    # block bodies dominate (the simulator runs small blocks; real chains
    # ship ~1 MB, where ICI's saving is an order of magnitude larger).
    config = ICIConfig(replication=1)
    asymptotic = render_table(
        ["block body", "full/ici advantage (exact model, N=1000, m=16, r=1)"],
        [
            (
                format_bytes(body),
                f"{ici_advantage_factor(1000, 16, config, body):.2f}x",
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
    full, ici = measured["full"], measured["ici"]
    for i in range(len(POPULATIONS)):
        assert ici[i] < full[i]
    assert full[-1] / ici[-1] > full[0] / ici[0] * 0.8


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
