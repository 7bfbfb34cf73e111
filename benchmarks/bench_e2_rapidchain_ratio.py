"""E2 (table): ICIStrategy needs ≈25% of the storage RapidChain needs.

The abstract's headline number.  RapidChain's committee size is
security-mandated at ≈250 members; ICI clusters can be small because they
only collaborate on storage/verification.  Closed forms at the paper's
scale (N=1000), cross-checked against measured simulator bytes at a
proportionally-scaled population (N=100, committee 25, cluster ~4).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    build_ici,
    build_rapid,
    drive,
    emit,
)
from repro.analysis.stats import relative_error
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.storage.accounting import (
    full_replication_total,
    ici_total,
    rapidchain_total,
)
from repro.storage.layout import (
    balanced_clusters,
    ici_layout,
    rapidchain_layout,
    synthetic_chain,
)

PAPER_N = 1000
PAPER_COMMITTEE = 250
LEDGER_BYTES = 2e9  # a 2 GB chain, arbitrary scale (ratios are scale-free)

SIM_N = 100
SIM_COMMITTEES = 4   # committee size 25
SIM_CLUSTERS = 25    # cluster size 4 → ratio 100/(4·25) = 1.0? see below
SIM_BLOCKS = 15


def test_e2_rapidchain_ratio(results_dir):
    # ---------------- closed forms at paper scale ----------------------
    rc_total = rapidchain_total(PAPER_N, PAPER_COMMITTEE, LEDGER_BYTES)
    configurations = [
        ("ici m=16  r=1", ici_total(PAPER_N, 16, 1, LEDGER_BYTES)),
        ("ici m=32  r=2", ici_total(PAPER_N, 32, 2, LEDGER_BYTES)),
        ("ici m=62  r=1", ici_total(PAPER_N, 62, 1, LEDGER_BYTES)),
        ("ici m=125 r=2", ici_total(PAPER_N, 125, 2, LEDGER_BYTES)),
        ("ici m=250 r=1", ici_total(PAPER_N, 250, 1, LEDGER_BYTES)),
    ]
    rows = [
        (
            "full replication",
            format_bytes(full_replication_total(PAPER_N, LEDGER_BYTES)),
            f"{100 * full_replication_total(PAPER_N, LEDGER_BYTES) / rc_total:.1f}%",
        ),
        ("rapidchain g=250", format_bytes(rc_total), "100.0%"),
    ]
    rows += [
        (name, format_bytes(total), f"{100 * total / rc_total:.1f}%")
        for name, total in configurations
    ]

    # ---------------- simulator cross-check at N=100 -------------------
    measured = {}

    def run_sim():
        rapid = build_rapid(SIM_N, SIM_COMMITTEES)
        drive(rapid, SIM_BLOCKS)
        ici = build_ici(SIM_N, SIM_CLUSTERS, replication=1)
        drive(ici, SIM_BLOCKS)
        measured["rapid"] = rapid.storage_report().total_bytes
        measured["ici"] = ici.storage_report().total_bytes
        # Body-only comparison (headers are identical overhead in both).
        measured["rapid_bodies"] = sum(
            r.body_bytes for r in rapid.storage_report().per_node
        )
        measured["ici_bodies"] = sum(
            r.body_bytes for r in ici.storage_report().per_node
        )
        # Paper-literal scale: exact placement layout, N=1000, 2000 x
        # ~1 MB blocks, RapidChain committees of 250, ICI clusters of 16.
        blocks = synthetic_chain(2000, mean_body_bytes=1_000_000, seed=1)
        ici_report = ici_layout(
            balanced_clusters(PAPER_N, 62, seed=1), blocks, replication=1
        )
        rapid_report = rapidchain_layout(
            balanced_clusters(PAPER_N, 4, seed=1), blocks
        )
        measured["paper_scale_ratio"] = sum(
            r.body_bytes for r in ici_report.per_node
        ) / sum(r.body_bytes for r in rapid_report.per_node)

    run_sim()

    sim_ratio = measured["ici_bodies"] / measured["rapid_bodies"]
    # Closed form for the simulated layout: (N/g_i)·r / g_c.
    expected_ratio = (SIM_CLUSTERS * 1) / (SIM_N / SIM_COMMITTEES)

    table = render_table(
        ["configuration", "network total", "% of RapidChain"],
        rows,
        title=(
            f"E2  Network storage vs RapidChain "
            f"(closed form, N={PAPER_N}, D={format_bytes(LEDGER_BYTES)})"
        ),
    )
    check = render_table(
        ["quantity", "value"],
        [
            ("simulated N", SIM_N),
            ("committee size", SIM_N // SIM_COMMITTEES),
            ("cluster size", SIM_N // SIM_CLUSTERS),
            ("measured body-byte ratio ici/rapidchain", f"{sim_ratio:.3f}"),
            ("closed-form ratio", f"{expected_ratio:.3f}"),
            (
                "paper-scale layout ratio (N=1000, 2000x1MB, m=16 vs g=250)",
                f"{measured['paper_scale_ratio']:.3f}",
            ),
        ],
        title="Simulator cross-check",
    )
    emit(results_dir, "e2_rapidchain_ratio", f"{table}\n\n{check}")

    # Headline: the m=16/r=1 configuration is exactly 25%.
    headline = configurations[0][1] / rc_total
    assert headline == pytest.approx(0.25)
    # Double-fault-tolerant variant is also 25%.
    assert configurations[1][1] / rc_total == pytest.approx(0.25)
    # Simulator agrees with the closed form within 10%.
    assert relative_error(sim_ratio, expected_ratio) < 0.10
    # Paper-literal placement lands on the 25% claim within 3%.
    assert relative_error(measured["paper_scale_ratio"], 0.25) < 0.03


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    n = 40
    committees = 4
    clusters = 10
    blocks = 5
    rapid = build_rapid(n, committees)
    drive(rapid, blocks)
    ici = build_ici(n, clusters, replication=1)
    drive(ici, blocks)
    return [("rapidchain", rapid), ("ici", ici)]


WORKLOAD = BenchWorkload(
    bench_id="e2",
    title="rapidchain ratio: simulator cross-check populations",
    run=_bench_workload,
)
