"""The storm verdict as a rate: ``churn_storm`` at scenario seeds 1-60.

    PYTHONPATH=src python benchmarks/perf/storm_census.py

Runs the endurance configuration perfbench's ``churn_storm`` workload
builds (``perfbench/workloads._churn_storm_setup`` at full size: 96 nodes
/ 12 clusters / r = 3, 24 blocks, adaptive, four zones, 48 queries) at
each scenario seed 1-60 itself, not through perfbench's ``STORM_SEEDS``,
on a fixed pool of two spawned processes, each seed in a fresh one.
Prints one JSON row per seed, in seed order: the verdict (``passed``),
each audit flag, the heal rounds, whether the heal went quiet before
``MAX_HEAL_ROUNDS``, and the exception if the run raised (its traceback
goes to stderr).  The last line is the pass rate and the seeds that
failed.  Gates nothing.
"""

import json
import multiprocessing
import sys
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(1, 61)
WORKERS = 2


def _storm(seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import _churn_storm_setup

    from repro.sim.chaos import run_endurance

    _, config = _churn_storm_setup(1, 1)
    row = {"seed": seed}
    try:
        outcome = run_endurance(replace(config, seed=seed))
    except Exception as exc:  # a raising run is a row, not the end
        traceback.print_exc()
        return {**row, "passed": False, "error": repr(exc)}
    return {
        **row,
        "passed": outcome.passed,
        "cluster_integrity": all(outcome.cluster_integrity.values()),
        "replica_floor_met": outcome.replica_floor_met,
        "diversity_met": bool(outcome.domains.get("diversity_met")),
        "heal_rounds": outcome.heal_rounds,
        "heal_converged": outcome.heal_converged,
        "error": None,
    }


def main() -> None:
    context = multiprocessing.get_context("spawn")
    with context.Pool(WORKERS, maxtasksperchild=1) as pool:
        rows = pool.map(_storm, SEEDS, chunksize=1)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    failed = [row["seed"] for row in rows if not row["passed"]]
    print(
        f"storm census: {len(rows) - len(failed)}/{len(rows)} seeds pass; "
        f"failed: {failed}; raised: "
        f"{[row['seed'] for row in rows if row['error']]}; "
        f"heals quiet: {sum(1 for row in rows if row.get('heal_converged'))}"
    )


if __name__ == "__main__":
    main()
