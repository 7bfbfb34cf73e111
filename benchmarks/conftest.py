"""Shared helpers for the experiment benches.

Each bench regenerates one table/figure of the paper's evaluation
(see DESIGN.md's experiment index):

* it *prints* the rows/series (visible with ``pytest -s``),
* it *writes* them under ``benchmarks/results/`` so runs leave artifacts
  behind, and
* it *asserts* the qualitative claim (who wins, roughly by how much).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS
from repro.storage.communication import (
    Traffic,
    edge_count,
    full_replication_traffic,
    ici_traffic,
    rapidchain_traffic,
    total,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def build_ici(n_nodes: int, n_clusters: int, replication: int = 1, **kw):
    config = ICIConfig(
        n_clusters=n_clusters,
        replication=replication,
        limits=BENCH_LIMITS,
        **kw,
    )
    return ICIDeployment(n_nodes, config=config)


def build_full(n_nodes: int):
    return FullReplicationDeployment(n_nodes, limits=BENCH_LIMITS)


def build_rapid(n_nodes: int, n_committees: int):
    return RapidChainDeployment(
        n_nodes, n_committees=n_committees, limits=BENCH_LIMITS
    )


def drive(deployment, n_blocks: int, txs_per_block: int = 6):
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=txs_per_block)
    return runner, report


def modeled_traffic(deployment, runner, report) -> Traffic:
    """The exact model's traffic for the blocks ``drive`` produced on a
    clean network (:mod:`repro.storage.communication`)."""
    network = deployment.network
    nodes = deployment.nodes
    edges = edge_count({node: network.peers_of(node) for node in nodes})
    tables = []
    for block in report.blocks:
        proposer = runner.schedule.proposer_at(block.height)
        if isinstance(deployment, ICIDeployment):
            clusters = deployment.clusters
            holders = deployment.holders_in_cluster(
                block.header, clusters.cluster_of(proposer)
            )
            table = ici_traffic(
                edges,
                [len(view.members) for view in clusters.views()],
                deployment.config,
                block.size_bytes,
                proposer in holders,
            )
        elif isinstance(deployment, RapidChainDeployment):
            home = deployment.home_committee(block.header)
            table = rapidchain_traffic(
                edges,
                len(nodes),
                len(deployment.committees.members_of(home)),
                block.size_bytes,
                proposer == deployment.committee_leader(home),
            )
        else:
            table = full_replication_traffic(
                edges, len(nodes), block.size_bytes
            )
        tables.append(table)
    return total(tables)


def measured_traffic(ledger) -> Traffic:
    """A traffic ledger in the model's shape: ``kind -> (count, bytes)``."""
    return {
        kind: (count, ledger.bytes_by_kind[kind])
        for kind, count in ledger.messages_by_kind.items()
    }
