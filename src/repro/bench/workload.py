"""The kernel declaration each bench module exports.

A ``benchmarks/bench_e*.py`` module declares::

    WORKLOAD = BenchWorkload(
        bench_id="e8",
        title="pipelined throughput parity",
        run=_bench_workload,   # () -> [(label, deployment), ...]
    )

``run`` executes the experiment's representative kernel and returns the
driven deployments, labelled, so the drift gate can pull simulated time,
traffic totals, event counts, and per-message-kind router counters out
of them.  Kernels must be deterministic: fixed seeds only, and identical
simulated metrics on every run (:func:`repro.bench.runner.measure`
enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

#: What a kernel returns: labelled deployments that were driven.
WorkloadOutput = Sequence[Tuple[str, object]]


@dataclass(frozen=True)
class BenchWorkload:
    """One experiment's drift-gate kernel, discoverable by the runner.

    Attributes:
        bench_id: short experiment id (``"e8"``); keys the baseline.
        title: human-readable one-liner.
        run: the kernel.
    """

    bench_id: str
    title: str
    run: Callable[[], WorkloadOutput]


def simulated_metrics(deployment) -> dict:
    """Machine-independent measurements of one driven deployment.

    Everything here is a pure function of the simulation (virtual clock,
    traffic ledger, router counters), so two runs with the same seed must
    produce identical dictionaries on any machine — the property both the
    determinism test and the baseline comparison lean on.
    """
    network = deployment.network
    stats = getattr(deployment.metrics, "router_stats", None)
    kinds: dict[str, dict[str, int]] = {}
    if stats is not None:
        for kind in sorted(set(stats.sends) | set(stats.deliveries)):
            kinds[kind] = {
                "sends": stats.sends.get(kind, 0),
                "send_bytes": stats.send_bytes.get(kind, 0),
                "deliveries": stats.deliveries.get(kind, 0),
            }
    return {
        "virtual_seconds": network.now,
        "messages": network.traffic.total_messages,
        "bytes": network.traffic.total_bytes,
        "events_processed": network.clock.processed,
        "message_kinds": kinds,
    }
