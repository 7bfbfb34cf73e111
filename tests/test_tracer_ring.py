"""Model test for the tracer's ring: stored form against a ``deque`` of events.

The ring stores an interned head and ``args`` per event, next to two
doubles in a float column (:mod:`repro.obs.tracer`); what callers see
must stay what a ``collections.deque(maxlen=capacity)`` of
:class:`TraceEvent` rows would show, type for type.  Hypothesis drives
``instant`` / ``complete`` / ``counter`` sequences — capacities 1–7,
lengths past two wraps, ``args`` absent, empty, nested, non-string,
equal across types (``True``, ``1``, ``1.0``) and packed the way the hot
producers pass them — and compares every reader after every record.
Rides the workflow's fuzz smoke step (``HYPOTHESIS_PROFILE=ci``).
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
    st.sampled_from((1, 1.0, True, 0, 0.0, False)),  # equal across types
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.tuples(_scalars, _scalars),
    st.dictionaries(st.sampled_from(KEYS), _scalars, max_size=2),
)
_dicts = st.dictionaries(st.sampled_from(KEYS), _values, max_size=4)
#: ``args`` as the hot producers pass them: packed, int and text values.
_packed = st.lists(st.sampled_from(KEYS), unique=True, max_size=3).flatmap(
    lambda keys: st.tuples(
        st.just(tuple(keys)),
        *[st.integers(-5, 2**40) | st.text(max_size=4)] * len(keys),
    )
)
_args = st.none() | _dicts | _packed
_tracks = st.sampled_from(
    [("sim", "test"), ("node", 3), ("proto", "reliability")]
)
_stamps = st.floats(0, 1e6)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("instant"), st.text(max_size=3), _tracks, _stamps,
            _args,
        ),
        st.tuples(
            st.just("complete"), st.text(max_size=3), _tracks, _stamps,
            _args, _stamps,
        ),
        st.tuples(
            st.just("counter"), st.text(max_size=3), _tracks, _stamps,
            _dicts,
        ),
    ),
    max_size=30,
)  # fmt: skip


def _shown(events) -> str:
    """The events as a ``repr``: ``==`` takes ``True``, ``1`` and
    ``1.0`` for one value, ``repr`` does not."""
    return repr(list(events))


def _as_dict(args: dict | tuple | None) -> dict | None:
    if args is None:
        return None
    if isinstance(args, tuple):
        return dict(zip(args[0], args[1:]))
    return dict(args)


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 7), _ops)
def test_ring_matches_a_deque_of_events(capacity, ops):
    tracer = Tracer(capacity=capacity)
    model: deque[TraceEvent] = deque(maxlen=capacity)
    packed: deque[tuple | None] = deque(maxlen=capacity)
    for recorded, (method, name, track, ts, args, *dur) in enumerate(ops, 1):
        expected = _as_dict(args)
        if method == "instant":
            tracer.instant(name, track, ts, "cat", args)
            row = (name, INSTANT, ts, 0.0, track, "cat", expected)
        elif method == "complete":
            tracer.complete(name, track, ts, dur[0], "cat", args)
            row = (name, SPAN, ts, dur[0], track, "cat", expected)
        else:
            tracer.counter(name, track, args, ts, "cat")
            row = (name, COUNTER, ts, 0.0, track, "cat", expected)
        model.append(TraceEvent(*row))
        packed.append(args if isinstance(args, tuple) else None)
        if isinstance(args, dict) and args:
            # The producer reuses its dict: the record must not move.
            args[next(iter(args))] = "mutated"
            args["extra"] = 1

        assert _shown(list(tracer)) == _shown(model)
        assert _shown(tracer) == _shown(model)
        assert len(tracer) == len(model)
        assert tracer.recorded == recorded
        assert tracer.evicted == recorded - len(model)
        stored = list(tracer.rows())
        assert [row[:6] for row in stored] == [event[:6] for event in model]
        for row, event in zip(stored, model):
            for key in (*KEYS, "extra"):
                want = repr((event.args or {}).get(key, MISSING))
                assert repr(arg_of(row[6], key, MISSING)) == want
                assert repr(arg_of(event.args, key, MISSING)) == want
        # The intern table holds what this lap of the ring recorded: the
        # distinct heads and packed ``args`` since it last wrapped to 0.
        lap = (recorded - 1) % capacity + 1
        lap_values = {
            (event.name, event.phase, event.track, event.category)
            for event in list(model)[-lap:]
        } | {args for args in list(packed)[-lap:] if args is not None}
        assert len(tracer._interned) <= len(lap_values)


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
