"""Trace exporters: Chrome trace-event JSON and a JSONL event stream.

The Chrome format (the *JSON Object Format* of the Trace Event spec,
loadable in Perfetto / ``chrome://tracing``) maps the tracer's track
model onto processes and threads:

* pid 1 ``nodes`` — one thread per node timeline, ``tid`` the node id;
* pid 2 ``protocol`` — one thread per protocol-engine stream
  (reliability, consensus);
* pid 3 ``simulator`` — fault weather, phase spans, storage series.

Timestamps are **virtual** microseconds (the simclock drives the story);
the JSONL stream keeps every field of every event, virtual stamps as
floats, for ad-hoc tooling.  :func:`validate_chrome_trace` is the
schema check :func:`write_chrome_trace` runs on every document before it
writes it, and the CI ``trace-smoke`` step runs on what was written.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ObservabilityError
from repro.obs.tracer import (
    COUNTER,
    INSTANT,
    NODE_GROUP,
    PROTO_GROUP,
    SIM_GROUP,
    SPAN,
    TraceEvent,
    Tracer,
)

#: Chrome process ids per track group.
GROUP_PIDS = {NODE_GROUP: 1, PROTO_GROUP: 2, SIM_GROUP: 3}
PROCESS_NAMES = {1: "nodes", 2: "protocol", 3: "simulator"}

#: Event phases a valid exported document may contain.
VALID_PHASES = frozenset({SPAN, INSTANT, COUNTER, "M"})

#: The ``track`` field of a stored row or a :class:`TraceEvent`.
_TRACK = itemgetter(4)


def _thread_layout(
    tracks: Iterable[tuple],
) -> dict[tuple, tuple[int, int, str]]:
    """Assign ``track -> (pid, tid, thread name)`` deterministically."""
    by_group: dict[str, set] = {}
    for group, key in set(tracks):
        by_group.setdefault(group, set()).add(key)
    pid = GROUP_PIDS[NODE_GROUP]
    layout: dict[tuple, tuple[int, int, str]] = {
        (NODE_GROUP, node_id): (pid, node_id, f"node {node_id}")
        for node_id in by_group.get(NODE_GROUP, ())
    }
    for group in (PROTO_GROUP, SIM_GROUP):
        for index, name in enumerate(sorted(by_group.get(group, ()))):
            layout[(group, name)] = (GROUP_PIDS[group], index, name)
    return layout


def to_chrome_trace(
    source: Tracer | Iterable[TraceEvent], label: str = "repro trace"
) -> dict:
    """Build the Chrome trace-event JSON document for one trace."""
    # Two passes (tracks, then events): a tracer is streamed, never
    # copied, and its first pass reads only the track of its stored rows.
    if isinstance(source, Tracer):
        events, rows = source, source.rows()
    else:
        events = rows = list(source)
    layout = _thread_layout(map(_TRACK, rows))
    trace_events: list[dict[str, Any]] = []
    for pid in sorted(set(pid for pid, _, _ in layout.values())):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": PROCESS_NAMES[pid]},
            }
        )
    for track in sorted(layout, key=str):
        pid, tid, name = layout[track]
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    for event in events:
        pid, tid, _ = layout[event.track]
        row: dict[str, Any] = {
            "name": event.name,
            "ph": event.phase,
            "pid": pid,
            "tid": tid,
            "ts": round(event.ts * 1e6, 3),
            "cat": event.category or "trace",
        }
        if event.phase == SPAN:
            row["dur"] = round(event.dur * 1e6, 3)
        elif event.phase == INSTANT:
            row["s"] = "t"  # thread-scoped instant
        if event.args:
            row["args"] = event.args
        trace_events.append(row)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "label": label,
            "time_domain": "virtual-microseconds",
        },
    }


def write_chrome_trace(
    source: Tracer | Iterable[TraceEvent],
    path: Path | str,
    label: str = "repro trace",
) -> Path:
    """Write the Chrome trace JSON for ``source`` to ``path`` (compact).

    Raises:
        ObservabilityError: when the document fails
            :func:`validate_chrome_trace`; nothing is written then.
    """
    payload = to_chrome_trace(source, label=label)
    problems = validate_chrome_trace(payload)
    if problems:
        raise ObservabilityError(
            f"invalid trace ({len(problems)} problems, first: {problems[0]})"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, separators=(",", ":")), encoding="utf-8"
    )
    return path


def validate_chrome_trace(payload: Any) -> list[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks the fields Perfetto needs on every event (``name`` / ``ph`` /
    ``pid`` / ``tid`` / ``ts``), duration on complete events, and that
    process/thread metadata is present — the contract the CI
    ``trace-smoke`` step enforces on exported documents.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a non-empty list"]
    named_threads = 0
    named_processes = 0
    for index, event in enumerate(events):
        prefix = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{prefix} is not an object")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{prefix}.name missing")
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            problems.append(f"{prefix}.ph {phase!r} not in {{X, i, C, M}}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{prefix}.{key} must be an integer")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{prefix}.ts must be a number")
        if phase == SPAN:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{prefix}.dur must be a number >= 0")
        if phase == COUNTER:
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(
                    f"{prefix}.args must be a non-empty object on a "
                    "counter event"
                )
            elif not all(
                isinstance(value, (int, float)) and not isinstance(
                    value, bool
                )
                for value in args.values()
            ):
                problems.append(
                    f"{prefix}.args counter series must be numeric"
                )
        if phase == "M":
            args = event.get("args", {})
            if event.get("name") == "thread_name" and args.get("name"):
                named_threads += 1
            if event.get("name") == "process_name" and args.get("name"):
                named_processes += 1
    if not named_processes:
        problems.append("no process_name metadata events")
    if not named_threads:
        problems.append("no thread_name metadata events")
    return problems


def event_to_json(event: TraceEvent) -> dict:
    """Full-fidelity JSON row for one event: every :class:`TraceEvent`
    field, its virtual stamps as floats."""
    group, key = event.track
    return {
        "name": event.name,
        "phase": event.phase,
        "ts": event.ts,
        "dur": event.dur,
        "track": [group, key],
        "category": event.category,
        "args": event.args,
    }


def write_jsonl(
    source: Tracer | Iterable[TraceEvent], path: Path | str
) -> Path:
    """Write one JSON object per event (oldest first) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for event in source:
            handle.write(json.dumps(event_to_json(event)) + "\n")
    return path
