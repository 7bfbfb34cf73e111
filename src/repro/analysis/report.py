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


def _dht_overlay_lines(dht: dict) -> list[str]:
    """The "## DHT overlay" section chaos/endurance summaries share."""
    return [
        "",
        "## DHT overlay",
        "",
        _md_table(
            ["counter", "value"],
            [
                (
                    "iterative lookups",
                    f"{dht.get('lookups_completed', 0)}"
                    f"/{dht.get('lookups_started', 0)} completed "
                    f"({dht.get('lookup_messages', 0)} messages, "
                    f"{dht.get('lookup_hops', 0)} hops)",
                ),
                (
                    "value lookups hit/miss",
                    f"{dht.get('value_hits', 0)}"
                    f"/{dht.get('value_misses', 0)} "
                    f"(+{dht.get('local_hits', 0)} local-record hits)",
                ),
                (
                    "records published",
                    f"{dht.get('records_published', 0)} "
                    f"({dht.get('stores_sent', 0)} STOREs, "
                    f"{dht.get('records_expired', 0)} expired)",
                ),
                (
                    "probe failures / evictions",
                    f"{dht.get('probe_failures', 0)}"
                    f"/{dht.get('contacts_evicted', 0)} "
                    f"({dht.get('pings_sent', 0)} refresh pings)",
                ),
                ("joins via self-lookup", dht.get("joins", 0)),
                (
                    "table census",
                    f"{dht.get('tables_audited', 0)} live tables, "
                    f"{dht.get('contacts', 0)} contacts "
                    f"({dht.get('stale_contacts', 0)} stale, "
                    f"{dht.get('empty_tables', 0)} empty tables)",
                ),
                (
                    "audit lookups",
                    f"{dht.get('audit_lookups_ok', 0)}"
                    f"/{dht.get('audit_lookups', 0)} resolved",
                ),
            ],
        ),
    ]


def _degraded_pct(outcome, kind: str) -> str:
    """Degraded requests as a share of tracked sends for one kind.

    ``outcome.sends`` is the per-kind ``RouterStats.sends`` capture;
    kinds without a send count (or pre-capture outcomes) render ``-``.
    """
    sends = getattr(outcome, "sends", None) or {}
    total = sends.get(kind, 0)
    degraded = outcome.degraded.get(kind, 0)
    if not total and not degraded:
        return "-"
    # Degrades are noted requester-side, so they can outnumber the
    # *observed* sends of their kind (a responder that died before ever
    # sending); the share is capped at 100% rather than extrapolated.
    return f"{degraded / max(total, degraded):.1%}"


def _protocol_recovery_table(outcome) -> str:
    """The per-kind retry/timeout/degraded table both summaries share."""
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


def _failure_domain_lines(domains: dict) -> list[str]:
    """The "## Failure domains" section chaos/endurance summaries share."""
    diversity = (
        "restored" if domains.get("diversity_met") else "NOT restored"
    )
    return [
        "",
        "## Failure domains",
        "",
        _md_table(
            ["counter", "value"],
            [
                (
                    "zone outage",
                    f"zone {domains.get('zone_killed', -1)} of "
                    f"{domains.get('zones', 0)} "
                    f"({domains.get('outage_victims', 0)} victims)",
                ),
                (
                    "live zones at audit",
                    f"{domains.get('live_zones', 0)}"
                    f"/{domains.get('zones', 0)}",
                ),
                (
                    "placements short of full spread",
                    domains.get("spread_deficit", 0),
                ),
                (
                    "diversity repairs",
                    domains.get("diversity_repairs", 0),
                ),
                ("**zone diversity**", f"**{diversity}**"),
            ],
        ),
    ]


def _storm_header(
    kind: str, outcome, detail: list[str], integrity_note: str = ""
) -> list[str]:
    """Title + run bullets the chaos and endurance summaries share."""
    config = outcome.config
    delay_seconds = config.fault_config().delay_seconds
    verdict = "restored" if outcome.integrity_restored else "VIOLATED"
    return [
        f"# {kind} run (seed {config.seed})",
        "",
        f"- nodes: {config.n_nodes} in {config.n_clusters} clusters, "
        f"r={config.replication}",
        f"- fault rates: drop {config.drop_rate:.0%}, "
        f"duplicate {config.duplicate_rate:.0%}, "
        f"delay {config.delay_rate:.0%} (+{delay_seconds:g}s)",
        *detail,
        f"- virtual time: {outcome.virtual_seconds:.1f}s over "
        f"{outcome.events_processed} events",
        f"- **cluster integrity: {verdict}** "
        f"({sum(outcome.cluster_integrity.values())}"
        f"/{len(outcome.cluster_integrity)} clusters hold the full "
        f"ledger{integrity_note})",
        "",
    ]


def _weather_lines(outcome) -> list[str]:
    """Fault interception, protocol recovery and delivery latency."""
    lines = [
        "## Fault interception",
        "",
        _md_table(
            ["fault", "count"],
            sorted(outcome.fault_stats.items()),
        ),
        "",
        "## Protocol recovery",
        "",
        _protocol_recovery_table(outcome),
    ]
    # Older pickled/stubbed outcomes may lack the percentiles field.
    percentiles = getattr(outcome, "latency_percentiles", None)
    if percentiles:
        lines += ["", "## Delivery latency (virtual time)", ""]
        tracer = getattr(outcome, "tracer", None)
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
    return lines


def _probe_lines(title: str, outcome, extra_rows=()) -> list[str]:
    """The closing probe table (query tallies, plus per-run rows)."""
    return [
        "",
        f"## {title}",
        "",
        _md_table(
            ["probe", "result"],
            [
                (
                    "queries",
                    f"{outcome.queries_completed}/{outcome.queries_attempted}"
                    f" completed, {outcome.queries_degraded} degraded",
                ),
                *extra_rows,
            ],
        ),
    ]


def render_chaos_summary(outcome) -> str:
    """Markdown post-mortem of one :func:`repro.sim.chaos.run_chaos`."""
    lines = _storm_header(
        "Chaos",
        outcome,
        [
            "- outages: "
            f"crashed {outcome.crashed or 'none'}, "
            f"stalled {outcome.stalled or 'none'}, "
            f"partitioned {outcome.partitioned or 'none'}",
            f"- blocks: {outcome.blocks_produced} produced, "
            f"{outcome.finalized_blocks} finalized everywhere",
        ],
    )
    lines += _weather_lines(outcome)
    if outcome.dht:
        lines += _dht_overlay_lines(outcome.dht)
    if outcome.domains:
        lines += _failure_domain_lines(outcome.domains)
    lines += _probe_lines(
        "Exercised under faults",
        outcome,
        [
            (
                "join bootstrap",
                ("complete" if outcome.bootstrap_complete else "incomplete")
                + f" ({outcome.bootstrap_bodies_unavailable}"
                " bodies unavailable)",
            ),
            ("bodies refetched at heal", outcome.refetched_bodies),
        ],
    )
    return "\n".join(lines) + "\n"


def render_endurance_summary(outcome) -> str:
    """Markdown audit of one :func:`repro.sim.chaos.run_endurance`."""
    floor = "met" if outcome.replica_floor_met else "NOT met"
    repair = outcome.repair
    ttr = outcome.time_to_repair
    lines = _storm_header(
        "Endurance",
        outcome,
        [
            f"- churn: {outcome.joins} joins, {outcome.leaves} leaves, "
            f"{outcome.churn_crashes} crashes "
            f"({outcome.skipped_events} events skipped)",
            "- outages: "
            f"crashed {outcome.outage_crashed or 'none'}, "
            f"partitioned {outcome.partitioned or 'none'}",
            f"- blocks: {outcome.blocks_produced} produced; healing "
            f"converged after {outcome.heal_rounds} sweep rounds",
        ],
        integrity_note=f"; replication floor {floor}",
    )
    lines += [
        "## Anti-entropy repair",
        "",
        _md_table(
            ["counter", "value"],
            [
                ("sweeps", repair.get("sweeps", 0)),
                (
                    "digests",
                    f"{repair.get('digests_received', 0)}"
                    f"/{repair.get('digests_requested', 0)} received "
                    f"({repair.get('digest_failures', 0)} failed)",
                ),
                (
                    "under-replication detected",
                    repair.get("under_replicated", 0),
                ),
                (
                    "repairs scheduled",
                    repair.get("repairs_scheduled", 0),
                ),
                (
                    "blocks re-replicated",
                    f"{repair.get('blocks_re_replicated', 0)} "
                    f"({repair.get('bytes_re_replicated', 0)} bytes)",
                ),
                (
                    "repair attempts degraded",
                    repair.get("repairs_degraded", 0),
                ),
                (
                    "deferred by departures",
                    outcome.deferred_blocks,
                ),
                ("unrecoverable", repair.get("unrecoverable", 0)),
                (
                    "time-to-repair p50/p95",
                    f"{format_seconds(ttr.get('p50', 0.0))} / "
                    f"{format_seconds(ttr.get('p95', 0.0))}"
                    if ttr
                    else "-",
                ),
            ],
        ),
        "",
    ]
    lines += _weather_lines(outcome)
    if outcome.adaptive:
        adaptive = outcome.adaptive
        lines += [
            "",
            "## Adaptive replication",
            "",
            _md_table(
                ["counter", "value"],
                [
                    (
                        "tier census (hot/warm/cold)",
                        f"{adaptive.get('hot_blocks', 0)}"
                        f"/{adaptive.get('warm_blocks', 0)}"
                        f"/{adaptive.get('cold_blocks', 0)}",
                    ),
                    (
                        "heat refreshes",
                        f"{adaptive.get('refreshes', 0)} "
                        f"({adaptive.get('reclassifications', 0)} "
                        "tier changes)",
                    ),
                    (
                        "replicas shed",
                        f"{adaptive.get('replicas_shed', 0)} "
                        f"({adaptive.get('bytes_shed', 0)} bytes)",
                    ),
                    (
                        "sheds blocked at the floor",
                        adaptive.get("sheds_blocked", 0),
                    ),
                    (
                        "floor violations",
                        adaptive.get("floor_violations", 0),
                    ),
                    ("storm reads", adaptive.get("storm_reads", 0)),
                    (
                        "total ledger bytes",
                        outcome.storage_total_bytes,
                    ),
                ],
            ),
        ]
    if outcome.archival:
        archival = outcome.archival
        lines += [
            "",
            "## Archival coding",
            "",
            _md_table(
                ["counter", "value"],
                [
                    (
                        "blocks archived / thawed",
                        f"{archival.get('blocks_archived', 0)}"
                        f"/{archival.get('blocks_thawed', 0)}",
                    ),
                    (
                        "coded entries at end",
                        f"{archival.get('archived_blocks', 0)} "
                        f"({archival.get('chunk_bytes', 0)} chunk bytes)",
                    ),
                    (
                        "chunks placed / repaired",
                        f"{archival.get('chunks_placed', 0)}"
                        f"/{archival.get('chunks_repaired', 0)}",
                    ),
                    (
                        "lazy reconstructions",
                        f"{archival.get('reconstructions', 0)} "
                        f"({archival.get('failed_reconstructions', 0)} "
                        "failed)",
                    ),
                    (
                        "replica bytes freed",
                        archival.get("replica_bytes_freed", 0),
                    ),
                    (
                        "chunk bytes read (amplification)",
                        archival.get("chunk_bytes_read", 0),
                    ),
                    (
                        "floor deficits seen in sweeps",
                        archival.get("floor_deficits", 0),
                    ),
                ],
            ),
        ]
    if outcome.dht:
        lines += _dht_overlay_lines(outcome.dht)
    if outcome.domains:
        lines += _failure_domain_lines(outcome.domains)
    lines += _probe_lines("Exercised after heal", outcome)
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
        node_rows = []
        single_label = (
            len({node.label for node in summary.nodes.values()}) <= 1
        )
        for key in sorted(
            summary.nodes,
            key=lambda k: (summary.nodes[k].label, summary.nodes[k].node_id),
        ):
            node = summary.nodes[key]
            name = (
                str(node.node_id)
                if single_label
                else f"{node.label}/{node.node_id}"
            )
            node_rows.append(
                (
                    name,
                    node.sends,
                    node.receives,
                    format_bytes(node.bytes_sent),
                    format_bytes(node.bytes_received),
                    f"`{_sparkline(node.timeline)}`",
                )
            )
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


def render_trace_profile(
    profiles, title: str = "Callback wall-cost profile"
) -> str:
    """Ranked markdown table of per-callback wall cost.

    ``profiles`` is the output of
    :func:`repro.obs.profile.profile_chrome_trace`: one row per callback
    qualname, already sorted by descending total wall cost.  The share
    column is each row's fraction of the summed wall time, so the table
    reads as "where did this run's real time go".
    """
    lines = [f"# {title}", ""]
    if not profiles:
        lines += [
            "No callback spans in this trace (recorded with "
            "`--no-callback-spans`?).",
        ]
        return "\n".join(lines) + "\n"
    grand_total = sum(p.total_us for p in profiles) or 1.0
    rows = [
        (
            f"`{p.name}`",
            p.calls,
            f"{p.total_us / 1e3:.2f}",
            f"{p.mean_us:.1f}",
            f"{p.max_us:.1f}",
            f"{100.0 * p.total_us / grand_total:.1f}%",
        )
        for p in profiles
    ]
    lines += [
        f"- callbacks: {sum(p.calls for p in profiles)} calls across "
        f"{len(profiles)} distinct handlers",
        f"- total wall: {grand_total / 1e3:.2f} ms",
        "",
        _md_table(
            ["callback", "calls", "total ms", "mean us", "max us",
             "share"],
            rows,
        ),
    ]
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
