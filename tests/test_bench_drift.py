"""The tier-1 drift gate: no experiment's simulated numbers moved.

Each of the 20 ``benchmarks/bench_e*.py`` kernels is run twice and its
simulated metrics compared *exactly* with ``benchmarks/baseline.json`` —
the same :func:`~repro.bench.runner.measure` / ``drift`` pair that
``repro bench`` runs.  A failure here means a protocol changed behaviour;
rewrite the baseline (``repro bench --write-baseline``) only when the
numbers were meant to move.
"""

from __future__ import annotations

import pytest

from repro.bench import runner

#: E20 (DHT lookup vs a broadcast no read path used) is retired: a
#: member names a block's holders from its own cluster table.
BENCH_IDS = [f"e{i}" for i in range(1, 22) if i != 20]


@pytest.fixture(scope="module")
def workloads():
    return {w.bench_id: w for w in runner.discover_workloads()}


@pytest.fixture(scope="module")
def baseline():
    return runner.load_baseline()


def test_baseline_and_kernels_name_the_same_ids(workloads, baseline):
    assert sorted(baseline) == sorted(workloads) == sorted(BENCH_IDS)


@pytest.mark.parametrize("bench_id", BENCH_IDS)
def test_no_simulated_drift(bench_id, workloads, baseline):
    measured = runner.measure(workloads[bench_id])
    assert runner.drift(bench_id, baseline[bench_id], measured) == []
