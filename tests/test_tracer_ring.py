"""Model test for the tracer's ring: flat slots against a ``deque`` of events.

The ring stores eight slots per event in one flat list, with ``args``
packed (:mod:`repro.obs.tracer`); what callers see must stay what a
``collections.deque(maxlen=capacity)`` of :class:`TraceEvent` rows would
show.  Hypothesis drives ``instant`` / ``complete`` / ``counter``
sequences — capacities 1–7, lengths past two wraps, ``args`` absent,
empty, nested and non-string — and compares every reader after every
record.  Rides the workflow's fuzz smoke step (``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import os
import re
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.obs.tracer import COUNTER, INSTANT, SPAN, TraceEvent, Tracer, arg_of

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

KEYS = ("bytes", "to", "from", "kind", "wall_us")
MISSING = object()

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.tuples(_scalars, _scalars),
    st.dictionaries(st.sampled_from(KEYS), _scalars, max_size=2),
)
_dicts = st.dictionaries(st.sampled_from(KEYS), _values, max_size=4)
_tracks = st.sampled_from(
    [("sim", "test"), ("node", ("", 3)), ("proto", ("a", "reliability"))]
)
_stamps = st.floats(0, 1e6)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("instant"), st.text(max_size=3), _tracks, _stamps,
            st.none() | _dicts,
        ),
        st.tuples(
            st.just("complete"), st.text(max_size=3), _tracks, _stamps,
            st.none() | _dicts, _stamps,
        ),
        st.tuples(
            st.just("counter"), st.text(max_size=3), _tracks, _stamps,
            _dicts,
        ),
    ),
    max_size=30,
)  # fmt: skip


def _unwalled(events) -> list[TraceEvent]:
    return [event._replace(wall=0.0) for event in events]


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 7), _ops)
def test_ring_matches_a_deque_of_events(capacity, ops):
    tracer = Tracer(capacity=capacity)
    model: deque[TraceEvent] = deque(maxlen=capacity)
    for recorded, (method, name, track, ts, args, *dur) in enumerate(ops, 1):
        expected = None if args is None else dict(args)
        if method == "instant":
            tracer.instant(name, track, ts, "cat", args)
            row = (name, INSTANT, ts, 0.0, track, "cat", 0.0, expected)
        elif method == "complete":
            tracer.complete(name, track, ts, dur[0], "cat", args)
            row = (name, SPAN, ts, dur[0], track, "cat", 0.0, expected)
        else:
            tracer.counter(name, track, args, ts, "cat")
            row = (name, COUNTER, ts, 0.0, track, "cat", 0.0, expected)
        model.append(TraceEvent(*row))
        if args:  # the producer reuses its dict: the record must not move
            args[next(iter(args))] = "mutated"
            args["extra"] = 1

        assert _unwalled(tracer.events()) == list(model)
        assert _unwalled(tracer) == list(model)
        assert len(tracer) == len(model)
        assert tracer.recorded == recorded
        assert tracer.evicted == recorded - len(model)
        assert tracer.capacity == capacity
        stored = list(tracer.rows())
        assert [row[:6] for row in stored] == [event[:6] for event in model]
        walls = [row[6] for row in stored]
        assert walls == sorted(walls)  # oldest first
        for row, event in zip(stored, model):
            for key in (*KEYS, "extra"):
                want = (event.args or {}).get(key, MISSING)
                assert arg_of(row[7], key, MISSING) == want
                assert arg_of(event.args, key, MISSING) == want


def test_only_the_tracer_module_knows_the_stored_form():
    """Readers and producers go through ``rows()``, ``arg_of``, iteration
    and module-level ``keys`` constants; none reaches into the ring or
    indexes a packed ``args``."""
    package = Path(repro.__file__).parent
    stored_form = re.compile(r"\b_ring\b|\bargs\[|\b_pack\b|\b_STRIDE\b")
    offenders = [
        f"{path.relative_to(package)}:{number}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "obs" / "tracer.py"
        and "repro.obs" in (text := path.read_text(encoding="utf-8"))
        for number, line in enumerate(text.splitlines(), 1)
        if stored_form.search(line)
    ]
    assert offenders == []
    assert stored_form.search(
        (package / "obs" / "tracer.py").read_text(encoding="utf-8")
    )
