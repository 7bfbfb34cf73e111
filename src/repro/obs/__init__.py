"""Structured tracing & telemetry (``repro.obs``).

A :class:`~repro.obs.tracer.Tracer` records spans and instant events —
stamped with simclock virtual time — into a bounded ring buffer,
attached non-invasively through the simulator's existing hook surfaces
(router observers, the fault injector's observer slot).
Exporters turn a trace into Chrome trace-event JSON (Perfetto-loadable,
one track per node) or a JSONL stream, and the summary pass computes
per-kind latency percentiles and per-node timelines.  See ``repro trace
--help`` for the CLI entry point.
"""

from repro.obs.hooks import TracingObserver, install_tracing
from repro.obs.summary import TraceSummary, summarize
from repro.obs.tracer import (
    TraceEvent,
    Tracer,
    node_track,
    proto_track,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "TraceSummary",
    "TracingObserver",
    "install_tracing",
    "node_track",
    "proto_track",
    "summarize",
]
