"""One repetition of one workload, in a process of its own.

``run.py`` starts this once per repetition so that ``ru_maxrss`` is the
workload's own, the program's process-wide ``lru_cache``s start cold
every time, and an uncaught exception fails one repetition instead of
the benchmark.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _cumulative(deployment) -> dict[str, int]:
    """The program's public running totals; the timed region is a delta."""
    totals = dict.fromkeys(
        (
            "events", "msgs", "bytes", "dropped", "deliveries", "retries",
            "timeouts", "degraded", "sweeps", "re_replicated", "archived",
            "reconstructions", "shed", "lookups", "lookup_msgs",
            "lookup_hops", "dht_hits", "dht_misses",
        ),
        0,
    )  # fmt: skip
    if deployment is None:
        return totals
    network = deployment.network
    router = deployment.metrics.router_stats
    repair = deployment.repair.stats
    dht = deployment.dht.stats
    totals.update(
        events=network.clock.processed,
        msgs=network.traffic.total_messages,
        bytes=network.traffic.total_bytes,
        dropped=network.dropped_messages,
        deliveries=router.total_deliveries,
        retries=router.total_retries,
        timeouts=router.total_timeouts,
        degraded=router.total_degraded,
        sweeps=repair.sweeps,
        re_replicated=repair.blocks_re_replicated,
        lookups=dht.lookups_completed,
        lookup_msgs=dht.lookup_messages,
        lookup_hops=dht.lookup_hops,
        dht_hits=dht.value_hits + dht.local_hits,
        dht_misses=dht.value_misses,
    )
    if deployment.archival is not None:
        tier = deployment.archival.stats
        totals.update(
            archived=tier.blocks_archived,
            reconstructions=tier.reconstructions,
        )
    if deployment.replication_planner is not None:
        totals["shed"] = deployment.replication_planner.stats.replicas_shed
    return totals


def _stored_share(deployment) -> float:
    """Mean per-node stored bytes over one full ledger copy (D·r/m)."""
    stored = deployment.storage_report().total_bytes
    if deployment.archival is not None:
        stored += deployment.archival.total_chunk_bytes
    return stored / len(deployment.nodes) / deployment.ledger.store.stored_bytes


def _layer_counters(delta: dict[str, int], outcome) -> dict[str, float]:
    lookups = delta["lookups"] or 1
    resolved = delta["dht_hits"] + delta["dht_misses"] or 1
    return {
        "net.events": delta["events"],
        "net.msgs": delta["msgs"],
        "net.msgs_dropped": delta["dropped"],
        "protocols.retries": delta["retries"],
        "protocols.timeouts": delta["timeouts"],
        "protocols.degraded": delta["degraded"],
        "protocols.repair.sweeps": delta["sweeps"],
        "protocols.repair.blocks_re_replicated": delta["re_replicated"],
        "storage.archival.blocks_archived": delta["archived"],
        "storage.archival.reconstructions": delta["reconstructions"],
        "storage.heat.replicas_shed": delta["shed"],
        "dht.lookup.msgs_per_lookup": delta["lookup_msgs"] / lookups,
        "dht.lookup.hops_per_lookup": delta["lookup_hops"] / lookups,
        "dht.lookup.hit_share": delta["dht_hits"] / resolved,
        **outcome.counters,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument(
        "--t0", type=float, required=True,
        help="time.time() in the parent just before this child started",
    )  # fmt: skip
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="test hook: raise inside the timed region",
    )  # fmt: skip
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = None
    if args.trace_out is not None:
        from probe import Probe

        probe = Probe()
        probe.install()

    deployment, state = workload.setup(args.seed, args.scale)
    before = _cumulative(deployment)
    gc.collect()
    setup_s = time.time() - args.t0
    if probe is not None:
        probe.recording = True
    start = time.perf_counter()
    if args.inject_failure:
        raise RuntimeError("injected failure (test hook)")
    outcome = workload.timed(deployment, state)
    timed_s = time.perf_counter() - start
    restored = None
    if probe is not None:
        probe.recording = False
        restored = probe.restore()

    deployment = outcome.deployment
    after = _cumulative(deployment)
    delta = {key: after[key] - before[key] for key in after}
    ordered = sorted(outcome.samples)
    ok_share = outcome.ok_share
    if ok_share is None:
        ok_share = 1.0 - outcome.failed / outcome.ops
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "host": {
            "setup_s": setup_s,
            "timed_s": timed_s,
            "ops_per_s": (outcome.ops - outcome.failed) / timed_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "events_per_s": delta["events"] / timed_s,
        },
        # Everything below repeats exactly for equal (workload, seed).
        "simulated": {
            "op_ok_share": ok_share,
            "node_storage_share": _stored_share(deployment),
            "msgs_per_op": delta["msgs"] / outcome.ops,
            "bytes_per_op": delta["bytes"] / outcome.ops,
            "op_virtual_s_p50": statistics.median(ordered),
            "op_virtual_s_p95": _percentile(ordered, 0.95),
            "samples": len(ordered),
        },
        "counters": _layer_counters(delta, outcome),
    }
    if probe is not None:
        dispatch_calls = sum(
            count
            for name, count in probe.calls.items()
            if name.startswith("protocols.") or name == "dht.handlers"
        )
        result["trace"] = {
            "wall_s": timed_s,
            "calls": dict(probe.calls),
            "self_s": dict(probe.self_s),
            "layer_self_s": probe.layer_self_s(),
            "bytes": dict(probe.bytes),
            "fidelity": {
                "originals_restored": restored,
                "clock_steps_match_events": (
                    probe.calls["net.clock.step"] == delta["events"]
                ),
                "dispatches_match_deliveries": (
                    dispatch_calls == delta["deliveries"]
                ),
            },
        }
        probe.write_raw(args.trace_out, workload.name, timed_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
