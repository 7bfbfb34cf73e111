"""What the always-on tracer costs: ``churn_storm`` with it on and off.

    PYTHONPATH=src python benchmarks/perf/tracer_overhead.py [--seed N] [--pairs N]

Alternating fresh processes run ``run_endurance`` at perfbench's
``churn_storm`` size with the default tracer and with
``Tracer(enabled=False)`` (nothing attached); prints wall time, cyclic GC
collections, peak RSS and the sends still pending a delivery in the
observer's queue-latency map at the end (0 untraced) per run, then the
on/off medians.  Every run's
``outcome.signature()`` (no trace aggregate in it) must be equal.  Then,
in this process, a census of what one traced event keeps: bytes
(tracemalloc) and GC-tracked objects per ``TracingObserver.on_send``,
``on_deliver`` (a queue-latency span) and ``on_retry``, each over
100,000 calls into a fresh default ``Tracer``, less the same calls on an
observer of ``Tracer(enabled=False)`` (which leaves the observer's own
pending-send map).  No gate.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

#: Calls per producer in the census.
CENSUS_EVENTS = 100_000


def _retained(producer: str, enabled: bool, messages: list) -> tuple:
    """(bytes, GC-tracked objects) ``producer`` leaves over ``messages``."""
    from repro.net.simclock import SimClock
    from repro.obs.hooks import TracingObserver
    from repro.obs.tracer import Tracer

    gc.collect()
    tracemalloc.start()
    gc.disable()  # a collection would reset the generation-0 count
    try:
        observer = TracingObserver(Tracer(enabled=enabled), SimClock())
        if producer == "deliver":  # witnessed sends: every deliver a span
            for message in messages:
                observer.on_send(message)
        before = tracemalloc.get_traced_memory()[0], gc.get_count()[0]
        if producer == "send":
            for message in messages:
                observer.on_send(message)
        elif producer == "deliver":
            for message in messages:
                observer.on_deliver(None, message)
        else:
            for message in messages:
                observer.on_retry("block_body")
        after = tracemalloc.get_traced_memory()[0], gc.get_count()[0]
    finally:
        gc.enable()
        tracemalloc.stop()
    return after[0] - before[0], after[1] - before[1]


def _census() -> dict:
    """Per traced event: bytes and GC-tracked objects the trace keeps."""
    from repro.net.message import MessageKind, sized_message

    # 96 senders x 96 recipients, one size: heads and args repeat, as
    # the messages of one kind between the nodes of a storm do.
    messages = [
        sized_message(MessageKind.BLOCK_BODY, i % 96, i // 96 % 96, None, 100)
        for i in range(CENSUS_EVENTS)
    ]
    census = {}
    for producer in ("send", "deliver", "retry"):
        on = _retained(producer, True, messages)
        off = _retained(producer, False, messages)
        census[producer] = {
            "bytes": round((on[0] - off[0]) / CENSUS_EVENTS, 1),
            "objects": round((on[1] - off[1]) / CENSUS_EVENTS, 3),
        }
    return census


def _child(seed: int, enabled: bool) -> None:
    from repro.obs.hooks import TracingObserver
    from repro.obs.tracer import Tracer
    from repro.sim.chaos import EnduranceConfig, run_endurance

    config = EnduranceConfig(
        seed=seed, n_nodes=96, n_clusters=12, replication=3, n_blocks=24,
        adaptive=True, domains=True, zones=4, queries=48)  # fmt: skip
    gc.collect()
    collections = sum(gen["collections"] for gen in gc.get_stats())
    start = time.perf_counter()
    outcome = run_endurance(config, tracer=Tracer(enabled=enabled))
    wall_s = round(time.perf_counter() - start, 3)
    observers = outcome.deployment.router._observers
    row = {
        "wall_s": wall_s,
        "events": outcome.tracer.recorded,
        "gc": sum(gen["collections"] for gen in gc.get_stats()) - collections,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024,
        "pending_sends": sum(
            len(observer._sent_at)
            for observer in observers
            if isinstance(observer, TracingObserver)
        ),
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
    # Last: a forked child inherits this process's peak RSS.
    print(f"census per traced event, {CENSUS_EVENTS:,} calls each:",
          json.dumps(_census(), sort_keys=True))
