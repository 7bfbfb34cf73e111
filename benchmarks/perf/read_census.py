"""What ``zipf_read``'s timed region sends, and which requests miss.

    PYTHONPATH=src python benchmarks/perf/read_census.py [--seed N ...] [--smoke]

Runs perfbench's ``zipf_read`` setup and timed region
(``perfbench/workloads.py``: 96 nodes / 12 clusters / r = 3, adaptive,
archival and DHT on, 32 blocks, six rounds of 600 Zipf reads, each
followed by two anti-entropy sweeps; ``--smoke`` is perfbench's quarter
size) with a router observer on every delivered read ``BLOCK_REQUEST``
(the ``read`` flow; repair pulls share the kind).
Prints one JSON row per seed (default 5): the timed region's sent
messages per kind; the read requests delivered, those that reached a node
without the body and those that crossed a cluster boundary; reads,
remote reads (the requester did not hold the body) and requests per
remote read; and the bodies repair re-replicated.  Gates nothing.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import _zipf_read_setup, _zipf_read_timed  # noqa: E402

from repro.net.message import MessageKind  # noqa: E402


class _RequestCensus:
    """Router observer: where each delivered read request landed."""

    def __init__(self, deployment) -> None:
        self.nodes = deployment.nodes
        self.delivered = 0
        self.missed = 0
        self.cross_cluster = 0

    def on_deliver(self, node, message) -> None:
        if message.kind is not MessageKind.BLOCK_REQUEST:
            return
        _request_id, flow, hashes = message.payload
        if flow != "read":
            return  # a repair pull, join or departure batch
        self.delivered += 1
        if not node.store.has_body(hashes[0]):
            self.missed += 1
        if self.nodes[message.sender].cluster_id != node.cluster_id:
            self.cross_cluster += 1


def census(seed: int, scale: int) -> dict:
    deployment, state = _zipf_read_setup(seed, scale)
    requests = _RequestCensus(deployment)
    deployment.router.add_observer(requests)
    reads = {"all": 0, "remote": 0}
    retrieve = deployment.retrieve_block

    def counted(requester, block_hash):
        reads["all"] += 1
        if not deployment.nodes[requester].store.has_body(block_hash):
            reads["remote"] += 1
        return retrieve(requester, block_hash)

    # The timed region reads through this attribute; the wrapper only
    # counts, so the run is the one perfbench times.
    deployment.retrieve_block = counted
    traffic = deployment.network.traffic
    before = dict(traffic.messages_by_kind)
    repaired = deployment.repair.stats.blocks_re_replicated
    outcome = _zipf_read_timed(deployment, state)
    by_kind = {
        kind.value: count - before.get(kind, 0)
        for kind, count in sorted(
            traffic.messages_by_kind.items(), key=lambda item: item[0].value
        )
        if count != before.get(kind, 0)
    }
    return {
        "seed": seed,
        "scale": scale,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "checks": all(outcome.checks.values()),
        "messages": sum(by_kind.values()),
        "messages_by_kind": by_kind,
        "block_requests": requests.delivered,
        "block_requests_missed": requests.missed,
        "block_requests_cross_cluster": requests.cross_cluster,
        "reads": reads["all"],
        "remote_reads": reads["remote"],
        "requests_per_remote_read": round(
            requests.delivered / max(reads["remote"], 1), 3
        ),
        "blocks_re_replicated": (
            deployment.repair.stats.blocks_re_replicated - repaired
        ),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument(
        "--smoke", action="store_true", help="perfbench's quarter size"
    )
    args = parser.parse_args(argv)
    for seed in args.seed or [5]:
        print(json.dumps(census(seed, 4 if args.smoke else 1)))


if __name__ == "__main__":
    main()
