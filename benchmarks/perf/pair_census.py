"""What one (node, block) pair costs in live Python heap on ``steady_write``.

    PYTHONPATH=src python benchmarks/perf/pair_census.py [--nodes N] [--blocks A,B] [--seed N] [--churn OPS]

One fresh process per ledger length builds perfbench's ``steady_write``
deployment (clusters of 8, r = 2, ``BENCH_LIMITS``, 6 txs per block, every
opt-in feature off), starts tracemalloc after the imports, produces the
blocks and prints the bytes still live at the end per (node, block) pair:
the total, the share allocated under each ``src/repro/`` package, and the
ten largest allocation sites.  With two lengths the last line is the
slope between them, which leaves out what the deployment costs before
its first block.  A third process repeats the longest run without
tracemalloc for an honest ``ru_maxrss``.

``--churn OPS`` asks what a membership change retains instead: on the
same deployment at the longest length, perfbench ``membership_churn``'s
cycle (join, graceful leave, join, crash + repair; victims drawn from the
largest cluster), ``OPS / 5`` ops of warm-up, then ``OPS`` ops between
two snapshots.  It prints the live bytes retained per op by package and
site, and the placement memo's groups and scores against the live
memberships.  A second process repeats the ops without tracemalloc and
prints host microseconds per op, split by self time into the overlay
(``clustered_topology`` and ``Network.peers_of``), the placement walk
(``RendezvousPlacement.reassignments``), the header ingest (the rest of
``BootstrapState.on_headers``) and everything else.  Prints only; gates
nothing.  To compare two trees, point ``PYTHONPATH`` at the other tree's
``src``.
"""

import argparse
import gc
import importlib
import json
import random
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

MARKER = "/repro/"


def _sites(snapshot) -> Counter:
    sites: Counter = Counter()
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        _, found, tail = frame.filename.rpartition(MARKER)
        if found:
            name = f"{tail}:{frame.lineno}"
        else:  # "<string>" is dataclass-generated __init__ code
            name = "<string>" if frame.filename == "<string>" else "<other>"
        sites[name] += stat.size
    return sites


def _memo(deployment) -> dict:
    placement = deployment.placement
    views = list(deployment.clusters.views())
    return {
        "groups": len(placement._groups),
        "scores": sum(map(len, placement._rows.values())),
        "rows": len(placement._rows),
        "clusters": len(views),
        "live": sum(len(view.members) for view in views),
    }


def _churn_op(deployment, rng: random.Random, index: int) -> None:
    if index % 2 == 0:
        deployment.join_new_node()
    else:
        largest = max(
            deployment.clusters.views(), key=lambda view: len(view.members)
        ).members
        victim = rng.choice(largest)
        if index % 4 == 1:
            deployment.leave_node(victim)
        else:
            deployment.repair_after_crash(victim)
    deployment.run()


def _churn(deployment, seed: int, ops: int) -> None:
    rng = random.Random(seed)
    warm_up = ops // 5
    for index in range(warm_up):
        _churn_op(deployment, rng, index)
    gc.collect()
    before, memo_before = _sites(tracemalloc.take_snapshot()), _memo(deployment)
    for index in range(warm_up, warm_up + ops):
        _churn_op(deployment, rng, index)
    gc.collect()
    after = _sites(tracemalloc.take_snapshot())
    after.subtract(before)
    print(json.dumps({
        "sites": after, "memo": [memo_before, _memo(deployment)],
    }))  # fmt: skip


#: part -> what it times, as ``(module, attribute path)``.
SPLIT = {
    "overlay": (
        ("repro.core.icistrategy", "clustered_topology"),
        ("repro.net.network", "Network.peers_of"),
    ),
    "placement walk": (
        ("repro.storage.placement", "RendezvousPlacement.reassignments"),
    ),
    "header ingest": (("repro.core.bootstrap", "BootstrapState.on_headers"),),
}


def _churn_split(deployment, seed: int, ops: int) -> None:
    """The same ops untraced: host seconds by part, each part's self time
    (a nested part's time counts once, in the innermost part)."""
    spent: Counter = Counter()
    children = [0.0]

    def span(part, function):
        def timed(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                spent[part] += elapsed - children.pop()
                children[-1] += elapsed

        return timed

    for part, targets in SPLIT.items():
        for module, path in targets:
            owner = importlib.import_module(module)
            *outer, name = path.split(".")
            for attribute in outer:
                owner = getattr(owner, attribute)
            setattr(owner, name, span(part, getattr(owner, name)))
    rng = random.Random(seed)
    warm_up = ops // 5
    for index in range(warm_up):
        _churn_op(deployment, rng, index)
    spent.clear()
    gc.collect()
    start = perf_counter()
    for index in range(warm_up, warm_up + ops):
        _churn_op(deployment, rng, index)
    spent["total"] = perf_counter() - start
    print(json.dumps({"split": spent}))


def _child(
    nodes: int, blocks: int, seed: int, traced: bool, churn: int = 0
) -> None:
    from repro.core.config import ICIConfig
    from repro.core.icistrategy import ICIDeployment
    from repro.sim.runner import ScenarioRunner
    from repro.sim.scenario import BENCH_LIMITS
    from repro.sim.workload import TransactionWorkload, WorkloadConfig

    if traced:
        tracemalloc.start()
    config = ICIConfig(n_clusters=nodes // 8, replication=2, limits=BENCH_LIMITS)
    deployment = ICIDeployment(nodes, config=config)
    runner = ScenarioRunner(
        deployment,
        workload=TransactionWorkload(WorkloadConfig(seed=seed)),
        limits=BENCH_LIMITS,
        seed=seed,
    )
    runner.produce_blocks(blocks, txs_per_block=6)
    if churn:
        return (_churn if traced else _churn_split)(deployment, seed, churn)
    sites = _sites(tracemalloc.take_snapshot()) if traced else Counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"sites": sites, "rss_mb": round(rss, 1)}))


def _report(label: str, sites: Counter, pairs: int, unit: str = "pair") -> None:
    packages: Counter = Counter()
    for name, size in sites.items():
        packages[name.partition("/")[0].partition(":")[0]] += size
    total = sum(sites.values())
    print(f"{label}: {total / 1e6:.2f} MB live, {total / pairs:,.0f} B per {unit}")
    print("  by package: " + ", ".join(
        f"{name} {size / pairs:,.0f}" for name, size in packages.most_common()
    ))
    ours = [site for site in sites.most_common() if site[0] != "<other>"]
    for name, size in ours[:10]:
        print(f"  {size / pairs:8,.0f} B/{unit}  {name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=256)
    parser.add_argument("--blocks", default="32,64")
    parser.add_argument("--seed", type=int, default=61)
    parser.add_argument("--churn", type=int, default=0, metavar="OPS")
    parser.add_argument("--child", nargs=2, metavar=("BLOCKS", "TRACED"))
    args = parser.parse_args()
    if args.child:
        blocks, traced = int(args.child[0]), args.child[1] == "1"
        sys.exit(_child(args.nodes, blocks, args.seed, traced, args.churn))
    command = [sys.executable, __file__, "--nodes", str(args.nodes),
               "--seed", str(args.seed), "--churn", str(args.churn),
               "--child"]  # fmt: skip

    def run(blocks: int, traced: bool) -> dict:
        out = subprocess.run(
            [*command, str(blocks), str(int(traced))],
            capture_output=True, check=True,
        )  # fmt: skip
        return json.loads(out.stdout)

    lengths = sorted(int(part) for part in args.blocks.split(","))
    if args.churn:
        churned = run(lengths[-1], True)
        _report(
            f"{args.nodes} nodes x {lengths[-1]} blocks, {args.churn} "
            "membership ops", Counter(churned["sites"]), args.churn, "op",
        )  # fmt: skip
        for when, memo in zip(("after warm-up", "at the end"), churned["memo"]):
            print(
                f"placement memo {when}: {memo['groups']} groups over "
                f"{memo['clusters']} clusters, {memo['scores']:,} scores over "
                f"{memo['rows']} blocks x {memo['live']} live members"
            )
        split = run(lengths[-1], False)["split"]
        total = split.pop("total")
        split["rest"] = total - sum(split.values())
        print(
            f"host us per op, tracemalloc off: {total / args.churn * 1e6:,.0f}"
            " = " + ", ".join(
                f"{part} {spent / args.churn * 1e6:,.0f}"
                for part, spent in split.items()
            )
        )  # fmt: skip
        sys.exit(0)
    censuses = []
    for blocks in lengths:
        sites = Counter(run(blocks, True)["sites"])
        censuses.append((blocks, sites))
        _report(f"{args.nodes} nodes x {blocks} blocks", sites, args.nodes * blocks)
    if len(censuses) > 1:
        (short, first), (long_, last) = censuses[0], censuses[-1]
        slope = Counter(last)
        slope.subtract(first)
        _report(f"slope {short} -> {long_} blocks", slope, args.nodes * (long_ - short))
    rss = run(lengths[-1], False)["rss_mb"]
    print(f"ru_maxrss at {lengths[-1]} blocks, tracemalloc off: {rss} MB")
