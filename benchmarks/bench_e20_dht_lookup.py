"""E20 (DHT): broadcast vs Kademlia-style holder lookup vs network size.

The DHT overlay's acceptance experiment: one seeded DHT-enabled
deployment per network size replays the same (requester, block)
resolution sequence as iterative α-parallel FIND_VALUE lookups and as
the pre-DHT flood baseline.  The claim: per-lookup message cost stays
~O(log N) for the overlay while the flood grows ~O(N) — the flood/DHT
cost ratio widens monotonically across >= 3 sizes — every lookup in
both arms resolves, joins converge by self-lookup for a fraction of
the legacy full-table exchange, and a chaos leg (10% drop + a crash)
still resolves every audit lookup after heal.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.bench.workload import BenchWorkload
from repro.sim.dht_compare import (
    CHAOS_DROP_RATE,
    DhtCompareConfig,
    run_dht_compare,
)
from repro.sim.scenario import BENCH_LIMITS

#: The acceptance run: defaults (seed 42, sizes 12/24/48 at 6 per
#: cluster, 6 blocks, 12 lookups per size, 10%-drop + crash chaos leg).
ACCEPT = DhtCompareConfig()


def test_e20_dht_lookup(results_dir):
    outcome = run_dht_compare(ACCEPT)

    rows = []
    for row in outcome.sizes:
        flood = outcome.messages_per_lookup(row, "flood_messages")
        dht = outcome.messages_per_lookup(row, "dht_messages")
        rows.append(
            (
                row["n_nodes"],
                f"{dht:.1f}",
                f"{outcome.messages_per_lookup(row, 'dht_hops'):.2f}",
                f"{flood:.1f}",
                f"{flood / dht:.1f}x",
                f"{row['dht_hits']}/{row['lookups']}",
                row["join_messages"],
                row["legacy_join_entries"],
            )
        )
    table = render_table(
        [
            "nodes",
            "dht msgs/lookup",
            "hops/lookup",
            "flood msgs/lookup",
            "flood/dht",
            "lookups ok",
            "join msgs",
            "legacy join entries",
        ],
        rows,
        title=(
            f"E20  DHT lookup vs broadcast "
            f"(r={ACCEPT.replication}, {ACCEPT.n_blocks} blocks, "
            f"{ACCEPT.lookups} lookups/size, chaos drop "
            f"{CHAOS_DROP_RATE:.0%})"
        ),
    )
    emit(results_dir, "e20_dht_lookup", table)

    # The acceptance criteria, verbatim.
    assert len(outcome.sizes) >= 3
    assert outcome.sublinear, outcome.sizes
    assert outcome.lookups_ok, outcome.sizes
    assert outcome.chaos_lookups_ok, outcome.chaos
    assert outcome.chaos_integrity
    assert outcome.chaos.get("stale_contacts") == 0
    assert outcome.chaos.get("empty_tables") == 0


# ------------------------------------------------------ drift-gate kernel
def _bench_workload():
    config = DhtCompareConfig(
        network_sizes=(12, 24), n_blocks=4, lookups=6
    )
    outcome = run_dht_compare(config, limits=BENCH_LIMITS)
    smallest = config.network_sizes[0]
    largest = config.network_sizes[-1]
    return [
        (f"dht-n{smallest}", outcome.deployments[smallest]),
        (f"dht-n{largest}", outcome.deployments[largest]),
    ]


WORKLOAD = BenchWorkload(
    bench_id="e20",
    title="DHT holder lookup vs broadcast baseline",
    run=_bench_workload,
)
