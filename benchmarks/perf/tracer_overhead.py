"""What the always-on tracer costs: ``churn_storm`` with it on and off.

    PYTHONPATH=src python benchmarks/perf/tracer_overhead.py [--seed N] [--pairs N]

Alternating fresh processes run ``run_endurance`` at perfbench's
``churn_storm`` size with the default tracer and with
``Tracer(enabled=False)`` (nothing attached); prints wall time, cyclic GC
collections and peak RSS per run, then the on/off medians.  Every run's
``outcome.signature()`` (no trace aggregate in it) must be equal.  No gate.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time


def _child(seed: int, enabled: bool) -> None:
    from repro.obs.tracer import Tracer
    from repro.sim.chaos import EnduranceConfig, run_endurance

    config = EnduranceConfig(
        seed=seed, n_nodes=96, n_clusters=12, replication=3, n_blocks=24,
        adaptive=True, domains=True, zones=4, queries=48)  # fmt: skip
    gc.collect()
    collections = sum(gen["collections"] for gen in gc.get_stats())
    start = time.perf_counter()
    outcome = run_endurance(config, tracer=Tracer(enabled=enabled))
    row = {
        "wall_s": round(time.perf_counter() - start, 3),
        "events": outcome.tracer.recorded,
        "gc": sum(gen["collections"] for gen in gc.get_stats()) - collections,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024,
    }
    print(json.dumps([row, outcome.signature()], sort_keys=True))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--child", choices=("on", "off"))
    args = parser.parse_args()
    if args.child:
        sys.exit(_child(args.seed, args.child == "on"))
    command = [sys.executable, __file__, "--seed", str(args.seed), "--child"]
    walls, reference = {"on": [], "off": []}, None
    for mode in ("on", "off") * args.pairs:
        out = subprocess.run([*command, mode], capture_output=True, check=True)
        row, signature = json.loads(out.stdout)
        assert reference in (None, signature), "tracing moved the simulation"
        reference = signature
        walls[mode].append(row["wall_s"])
        print(f"tracer {mode:3s} {row}")
    on, off = (statistics.median(walls[mode]) for mode in ("on", "off"))
    print(f"median wall: on {on:.3f}s / off {off:.3f}s = {on / off:.2f}x")
