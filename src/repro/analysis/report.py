"""Full-deployment markdown reports.

Renders everything a deployment knows about itself — storage layout,
traffic breakdown, verification costs, latencies, membership events —
into one markdown document.  The CLI's ``run --report FILE`` writes it;
operators get the same post-mortem the benches print, in one place.
"""

from __future__ import annotations

import statistics
from typing import TextIO

from repro.analysis.tables import format_bytes, format_seconds
from repro.net.message import MessageKind


def _md_table(headers: list[str], rows: list[tuple]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_deployment_report(deployment, title: str = "Deployment report") -> str:
    """Markdown report for any :class:`StorageDeployment`."""
    sections = [f"# {title}", ""]
    sections.append(_section_population(deployment))
    sections.append(_section_storage(deployment))
    sections.append(_section_traffic(deployment))
    sections.append(_section_router(deployment))
    sections.append(_section_verification(deployment))
    sections.append(_section_latency(deployment))
    sections.append(_section_events(deployment))
    return "\n\n".join(part for part in sections if part)


def write_deployment_report(
    deployment, stream: TextIO, title: str = "Deployment report"
) -> None:
    """Write the markdown report to an open text stream."""
    stream.write(render_deployment_report(deployment, title=title))
    stream.write("\n")


# ----------------------------------------------------------------- sections
def _section_population(deployment) -> str:
    rows = [("nodes", deployment.node_count)]
    clusters = getattr(deployment, "clusters", None) or getattr(
        deployment, "committees", None
    )
    if clusters is not None:
        rows.append(("clusters/committees", clusters.cluster_count))
        rows.append(
            ("group sizes", ", ".join(map(str, clusters.sizes())))
        )
    ledger = getattr(deployment, "ledger", None)
    if ledger is not None:
        rows.append(("chain height", ledger.height))
    reorgs = getattr(deployment, "reorg_count", None)
    if reorgs:
        rows.append(("reorgs", reorgs))
    return "## Population\n\n" + _md_table(["quantity", "value"], rows)


def _section_storage(deployment) -> str:
    storage = deployment.storage_report()
    rows = [
        ("network total", format_bytes(storage.total_bytes)),
        ("mean per node", format_bytes(storage.mean_node_bytes)),
        ("max per node", format_bytes(storage.max_node_bytes)),
        ("stdev per node", format_bytes(storage.stdev_node_bytes)),
    ]
    parity = getattr(deployment, "parity", None)
    if parity is not None:
        rows.append(
            ("parity bytes", format_bytes(parity.total_parity_bytes))
        )
        rows.append(("parity groups", parity.sealed_groups))
    return "## Storage\n\n" + _md_table(["quantity", "value"], rows)


def _section_traffic(deployment) -> str:
    traffic = deployment.network.traffic
    rows = [
        (
            kind.value,
            traffic.messages_by_kind.get(kind, 0),
            format_bytes(traffic.bytes_by_kind.get(kind, 0)),
        )
        for kind in MessageKind
        if traffic.bytes_by_kind.get(kind, 0)
    ]
    rows.sort(key=lambda row: row[0])
    rows.append(
        ("TOTAL", traffic.total_messages, format_bytes(traffic.total_bytes))
    )
    return "## Traffic\n\n" + _md_table(
        ["message kind", "messages", "bytes"], rows
    )


def _section_router(deployment) -> str:
    stats = getattr(deployment.metrics, "router_stats", None)
    if stats is None or not stats.total_sends:
        return ""
    # Every registered kind renders — zero-count rows included — so a
    # freshly added (or dormant, e.g. disabled-overlay) message kind is
    # visibly idle instead of silently missing from the post-mortem.
    router = getattr(deployment, "router", None)
    registered = {
        kind.value for kind in getattr(router, "handled_kinds", ())
    }
    rows = [
        (
            kind,
            stats.sends.get(kind, 0),
            format_bytes(stats.send_bytes.get(kind, 0)),
            stats.deliveries.get(kind, 0),
        )
        for kind in sorted(
            set(stats.sends) | set(stats.deliveries) | registered
        )
    ]
    rows.append(
        (
            "TOTAL",
            stats.total_sends,
            format_bytes(sum(stats.send_bytes.values())),
            stats.total_deliveries,
        )
    )
    table = _md_table(
        ["message kind", "sends", "sent bytes", "deliveries"], rows
    )
    tail = (
        f"\nFinalize events observed: {stats.finalize_events}."
        "\n(Sends count node-initiated messages; gossip relays enter the"
        " network directly and appear under deliveries and Traffic only.)"
    )
    return "## Router activity\n\n" + table + tail


def _section_verification(deployment) -> str:
    costs = deployment.metrics.costs
    rows = [
        ("full body validations", costs.full_validations),
        ("header-only checks", costs.header_checks),
        ("simulated CPU seconds", f"{costs.cpu_seconds:.4f}"),
    ]
    rejected = deployment.metrics.blocks_rejected
    rows.append(("blocks rejected", len(rejected)))
    compact = getattr(deployment, "compact_stats", None)
    if compact is not None and compact.announcements:
        rows.append(
            ("compact mempool hit rate", f"{compact.hit_rate:.0%}")
        )
    return "## Verification\n\n" + _md_table(["quantity", "value"], rows)


def _section_latency(deployment) -> str:
    metrics = deployment.metrics
    rows = []
    clusters = getattr(deployment, "clusters", None) or getattr(
        deployment, "committees", None
    )
    if clusters is not None and metrics.block_submitted_at:
        latencies = [
            lat
            for block_hash in metrics.block_submitted_at
            if (
                lat := metrics.finalize_latency(
                    block_hash, clusters.cluster_count
                )
            )
            is not None
        ]
        if latencies:
            rows.append(
                (
                    "block finalize (all clusters), mean",
                    format_seconds(statistics.fmean(latencies)),
                )
            )
            rows.append(
                (
                    "block finalize, max",
                    format_seconds(max(latencies)),
                )
            )
    query_latencies = metrics.completed_query_latencies()
    if query_latencies:
        rows.append(
            (
                "block retrieval, mean",
                format_seconds(statistics.fmean(query_latencies)),
            )
        )
    if not rows:
        return ""
    return "## Latency\n\n" + _md_table(["quantity", "value"], rows)


def _counter_lines(name: str, counters: dict) -> list[str]:
    """One ``## <name>`` section: a ``counter | value`` row per key, in
    the dict's own order (no label map, so a new counter needs no edit
    here)."""
    rows = [
        (key, f"{value:g}" if isinstance(value, float) else value)
        for key, value in counters.items()
    ]
    return ["", f"## {name}", "", _md_table(["counter", "value"], rows)]


def _degraded_pct(outcome, kind: str) -> str:
    """Degraded requests as a share of tracked sends for one kind.

    ``outcome.sends`` is the per-kind ``RouterStats.sends`` capture;
    kinds without a send count render ``-``.
    """
    total = outcome.sends.get(kind, 0)
    degraded = outcome.degraded.get(kind, 0)
    if not total and not degraded:
        return "-"
    # Degrades are noted requester-side, so they can outnumber the
    # *observed* sends of their kind (a responder that died before ever
    # sending); the share is capped at 100% rather than extrapolated.
    return f"{degraded / max(total, degraded):.1%}"


def _protocol_recovery_table(outcome) -> str:
    """The storm summary's per-kind retry/timeout/degraded table."""
    kinds = sorted(
        set(outcome.retries) | set(outcome.timeouts) | set(outcome.degraded)
    )
    return _md_table(
        ["message kind", "retries", "timeouts", "degraded", "degraded %"],
        [
            (
                kind,
                outcome.retries.get(kind, 0),
                outcome.timeouts.get(kind, 0),
                outcome.degraded.get(kind, 0),
                _degraded_pct(outcome, kind),
            )
            for kind in kinds
        ]
        or [("(none)", 0, 0, 0, "-")],
    )


def render_endurance_summary(outcome) -> str:
    """Markdown audit of one :func:`repro.sim.chaos.run_endurance`:
    verdict and run bullets, one section per non-empty counter dict,
    protocol recovery, delivery latency and the closing probe."""
    config = outcome.config
    delay_seconds = config.fault_config().delay_seconds
    verdict = "restored" if outcome.integrity_restored else "VIOLATED"
    floor = "met" if outcome.replica_floor_met else "NOT met"
    heal = (
        f"converged after {outcome.heal_rounds} sweep rounds"
        if outcome.heal_converged
        else f"stopped at the {outcome.heal_rounds}-round cap without "
        "going quiet"
    )
    lines = [
        f"# Endurance run (seed {config.seed})",
        "",
        f"- **verdict: {'passed' if outcome.passed else 'FAILED'}**",
        f"- nodes: {config.n_nodes} in {config.n_clusters} clusters, "
        f"r={config.replication}",
        f"- fault rates: drop {config.drop_rate:.0%}, "
        f"duplicate {config.duplicate_rate:.0%}, "
        f"delay {config.delay_rate:.0%} (+{delay_seconds:g}s)",
        f"- churn: {outcome.joins} joins, {outcome.leaves} leaves, "
        f"{outcome.churn_crashes} crashes "
        f"({outcome.skipped_events} events skipped)",
        "- outages: "
        f"crashed {outcome.outage_crashed or 'none'}, "
        f"stalled {outcome.outage_stalled or 'none'}, "
        f"partitioned {outcome.partitioned or 'none'}",
        f"- blocks: {outcome.blocks_produced} produced, "
        f"{outcome.deployment.total_finalized_blocks()} finalized "
        f"everywhere, {outcome.deferred_blocks} deferred by departures "
        f"to the sweep; healing {heal}",
        f"- ledger at audit: {format_bytes(outcome.storage_total_bytes)}",
        f"- virtual time: {outcome.virtual_seconds:.1f}s over "
        f"{outcome.events_processed} events",
        f"- **cluster integrity: {verdict}** "
        f"({sum(outcome.cluster_integrity.values())}"
        f"/{len(outcome.cluster_integrity)} clusters hold the full "
        f"ledger; replication floor {floor})",
    ]
    for name, counters in outcome.counters().items():
        if counters:
            lines += _counter_lines(name, counters)
    lines += [
        "",
        "## Protocol recovery",
        "",
        _protocol_recovery_table(outcome),
    ]
    percentiles = outcome.latency_percentiles
    if percentiles:
        lines += ["", "## Delivery latency (virtual time)", ""]
        tracer = outcome.tracer
        if tracer is not None and tracer.evicted:
            lines += [
                f"{tracer.evicted} of {tracer.recorded} trace events "
                "evicted; percentiles cover the retained window",
                "",
            ]
        lines += [
            _md_table(
                ["message kind", "delivered", "p50", "p95", "p99", "max"],
                [
                    (
                        kind,
                        entry.get("count", 0),
                        format_seconds(entry.get("p50", 0.0)),
                        format_seconds(entry.get("p95", 0.0)),
                        format_seconds(entry.get("p99", 0.0)),
                        format_seconds(entry.get("max", 0.0)),
                    )
                    for kind, entry in sorted(percentiles.items())
                    if entry.get("count", 0)
                ]
                or [("(none)", 0, "-", "-", "-", "-")],
            ),
        ]
    lines += [
        "",
        "## Exercised after heal",
        "",
        _md_table(
            ["probe", "result"],
            [
                (
                    "queries",
                    f"{outcome.queries_completed}/{outcome.queries_attempted}"
                    f" completed, {outcome.queries_degraded} degraded",
                ),
            ],
        ),
    ]
    return "\n".join(lines) + "\n"


#: Eight-level activity sparkline glyphs for node timelines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(counts) -> str:
    peak = max(counts, default=0)
    if peak == 0:
        return "·" * len(counts)
    return "".join(
        "·" if count == 0
        else _SPARK_BLOCKS[
            min((count * len(_SPARK_BLOCKS)) // peak,
                len(_SPARK_BLOCKS) - 1)
        ]
        for count in counts
    )


def render_trace_summary(summary, title: str = "Trace summary") -> str:
    """Markdown view of one :class:`repro.obs.summary.TraceSummary`.

    Three tables: per-message-kind queue-latency percentiles (virtual
    time), per-node send/receive/bytes timelines (with an activity
    sparkline over the trace's virtual-time span), and the phase spans.
    """
    lines = [
        f"# {title}",
        "",
        f"- events: {summary.events} retained "
        f"({summary.recorded} recorded, {summary.evicted} evicted)",
        f"- virtual span: {format_seconds(summary.span_seconds)} "
        f"(from {summary.t_start:.3f}s to {summary.t_end:.3f}s)",
        "",
        "## Delivery latency by message kind (virtual time)",
        "",
    ]
    latency_rows = [
        (
            latency.kind,
            latency.count,
            format_seconds(latency.p50),
            format_seconds(latency.p95),
            format_seconds(latency.p99),
            format_seconds(latency.max),
            latency.unmatched,
        )
        for _, latency in sorted(summary.kinds.items())
        if latency.count
    ]
    lines.append(
        _md_table(
            ["message kind", "delivered", "p50", "p95", "p99", "max",
             "unmatched"],
            latency_rows or [("(none)", 0, "-", "-", "-", "-", 0)],
        )
    )
    if summary.nodes:
        lines += ["", "## Per-node timelines", ""]
        node_rows = [
            (
                node.node_id,
                node.sends,
                node.receives,
                format_bytes(node.bytes_sent),
                format_bytes(node.bytes_received),
                f"`{_sparkline(node.timeline)}`",
            )
            for _, node in sorted(summary.nodes.items())
        ]
        lines.append(
            _md_table(
                ["node", "sends", "recvs", "bytes out", "bytes in",
                 "activity"],
                node_rows,
            )
        )
    if summary.phases:
        lines += ["", "## Phases", ""]
        lines.append(
            _md_table(
                ["phase", "start", "duration"],
                [
                    (name, f"{start:.3f}s", format_seconds(dur))
                    for name, start, dur in summary.phases
                ],
            )
        )
    return "\n".join(lines) + "\n"


def _section_events(deployment) -> str:
    metrics = deployment.metrics
    rows = []
    for join in metrics.bootstraps:
        rows.append(
            (
                "join",
                join.node_id,
                format_bytes(join.total_bytes),
                format_seconds(join.duration) if join.duration else "-",
                "complete" if join.complete else "PENDING",
            )
        )
    for departure in metrics.departures:
        rows.append(
            (
                "leave" if departure.graceful else "crash",
                departure.node_id,
                format_bytes(departure.bytes_moved),
                format_seconds(departure.duration)
                if departure.duration is not None
                else "-",
                f"{len(departure.lost_blocks)} lost"
                if departure.lost_blocks
                else "complete",
            )
        )
    if not rows:
        return ""
    return "## Membership events\n\n" + _md_table(
        ["event", "node", "bytes", "duration", "status"], rows
    )
