"""Aggregation pass over a trace: latency percentiles and node timelines.

Turns the raw event stream of one :class:`~repro.obs.tracer.Tracer` into
the numbers the paper's flow claims are argued with:

* per-message-kind **queue-latency histograms** (p50/p95/p99 in virtual
  time) from the deliver spans;
* per-node **send/receive/bytes timelines**, bucketed over the trace's
  virtual-time span (rendered as activity sparklines by
  :func:`repro.analysis.report.render_trace_summary`);
* the phase spans, so a trace reads as a story.

Everything here is a pure function of the event stream — summarizing a
fixed-seed run is itself deterministic (phase spans' ``wall_us`` args
are ignored).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import ceil, inf
from typing import Iterable

from repro.obs.tracer import (
    NODE_GROUP,
    PHASE_TRACK,
    SPAN,
    TraceEvent,
    Tracer,
    arg_of,
)

#: Virtual-time buckets per node-activity timeline.
TIMELINE_BUCKETS = 16


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = ceil(fraction * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


@dataclass
class KindLatency:
    """Queue-latency distribution of one message kind (virtual seconds)."""

    kind: str
    count: int = 0
    unmatched: int = 0  # deliveries with no witnessed send (relays, dups)
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    max: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (chaos outcomes embed these)."""
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass
class NodeActivity:
    """One node's traffic over the trace (plus a bucketed timeline)."""

    node_id: int
    sends: int = 0
    receives: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    first_ts: float | None = None
    last_ts: float | None = None
    #: Events per virtual-time bucket (``TIMELINE_BUCKETS`` bins over
    #: the whole trace span).
    timeline: list[int] = field(default_factory=list)


@dataclass
class TraceSummary:
    """The aggregation of one trace."""

    events: int = 0
    recorded: int = 0
    evicted: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    kinds: dict[str, KindLatency] = field(default_factory=dict)
    nodes: dict[int, NodeActivity] = field(default_factory=dict)
    phases: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def span_seconds(self) -> float:
        """Virtual seconds between the first and last event."""
        return self.t_end - self.t_start

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-kind percentile dicts (the chaos report embeds these)."""
        return {
            kind: latency.as_dict()
            for kind, latency in sorted(self.kinds.items())
        }


def summarize(
    source: Tracer | Iterable[TraceEvent],
    buckets: int = TIMELINE_BUCKETS,
) -> TraceSummary:
    """Aggregate a tracer (or raw event list) into a :class:`TraceSummary`.

    One unpacking pass over the events (a tracer's rows are streamed,
    not copied); the timelines need the whole trace's span, so the pass
    keeps each node's stamps and buckets them once the span is known.
    """
    if isinstance(source, Tracer):
        events, count = source.rows(), len(source)
        recorded, evicted = source.recorded, source.evicted
    else:
        events = list(source)
        count = recorded = len(events)
        evicted = 0
    summary = TraceSummary(events=count, recorded=recorded, evicted=evicted)
    if not count:
        return summary

    kinds, phases = summary.kinds, summary.phases
    # node id -> (activity, virtual stamp of each send/deliver), and
    # kind -> span durations.  Arrays, not lists: a tracer's rows carry
    # fresh float objects, and a list would keep each one alive until
    # the pass ends.
    rows: dict[int, tuple[NodeActivity, array]] = {}
    latencies: dict[str, array] = {}
    t_start, t_end = inf, -inf
    for name, phase, ts, dur, (group, key), category, args in events:
        end = ts + dur
        if ts < t_start:
            t_start = ts
        if end > t_end:
            t_end = end
        if group == NODE_GROUP:
            row = rows.get(key)
            if row is None:
                row = rows[key] = (NodeActivity(key), array("d"))
            node, stamps = row
            size = arg_of(args, "bytes", 0)
            if category == "send":
                node.sends += 1
                node.bytes_sent += size
            elif category == "deliver":
                node.receives += 1
                node.bytes_received += size
                samples = latencies.get(name)
                if samples is None:
                    samples = latencies[name] = array("d")
                if phase == SPAN:
                    samples.append(dur)
                else:
                    entry = kinds.get(name)
                    if entry is None:
                        entry = kinds[name] = KindLatency(kind=name)
                    entry.unmatched += 1
            else:
                continue
            stamps.append(ts)
            if node.first_ts is None or ts < node.first_ts:
                node.first_ts = ts
            if node.last_ts is None or end > node.last_ts:
                node.last_ts = end
        elif phase == SPAN and (group, key) == PHASE_TRACK:
            phases.append((name, ts, dur))
    summary.t_start, summary.t_end = t_start, t_end

    for kind, samples in latencies.items():
        entry = kinds.setdefault(kind, KindLatency(kind=kind))
        if not samples:
            continue
        samples = sorted(samples)
        entry.count = len(samples)
        entry.p50 = percentile(samples, 0.50)
        entry.p95 = percentile(samples, 0.95)
        entry.p99 = percentile(samples, 0.99)
        entry.mean = sum(samples) / len(samples)
        entry.max = samples[-1]

    span = t_end - t_start
    scale = (buckets / span) if span > 0 else 0.0
    last = buckets - 1
    for key, (node, stamps) in rows.items():
        summary.nodes[key] = node
        timeline = node.timeline = [0] * buckets
        if last >= 0:
            for ts in stamps:
                timeline[min(int((ts - t_start) * scale), last)] += 1
    phases.sort(key=lambda p: (p[1], -p[2], p[0]))
    return summary
