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
