"""The recorded story, pinned — and the shape of one recorded event.

The tracer is on in every ``repro chaos`` / ``repro endurance`` run, so
its record path gets optimised; what it *records* must not move when it
does.  The shas below cover everything an export or a summary shows
except wall-clock residue (the ``wall`` stamp and span ``wall_us`` args,
masked the way :mod:`repro.obs.diff` masks them).  The endurance pins
were last retaken when repair pulls and join/departure batches moved
onto the body-transfer service's ``BLOCK_REQUEST``/``BLOCK_BODY``: the
new code, sending those flows under their old kinds, reproduced the
previous pins exactly.  Before that they were retaken when tracks lost
their per-deployment label (``("node", id)``, ``("proto", name)``).  The
CLI pins were retaken when the clock stopped recording a span per
callback: the new story equals the old one with its 604 callback spans
removed, events compared by thread name (the simulator process lost its
``clock`` thread, so ``phases`` moved to tid 0).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cli import main
from repro.obs.export import event_to_json, to_chrome_trace, write_jsonl
from repro.obs.summary import summarize
from repro.obs.tracer import TraceEvent, Tracer, node_track
from repro.sim.chaos import EnduranceConfig, run_endurance

from tests.conftest import TEST_LIMITS

ENDURANCE_PINS = (
    "2608ae5a431b7cb0c1f5dce83d7be47daed7fa9ae11986a75897446fb7ddb8bd",
    "8855ee3f36c4326095a312ba6c44de98b6b68826a20012451dfa8a88b034f28b",
    "c947d9653b6f0eae628ae1ea3d825f61b8ec9db2d5a69a690c9e75a1078e0cdd",
)
CLI_TRACE_PINS = (
    "780aa3ac0e04ff9e7c7a28cb8510678cf1a62810530826320490efbfbb5e08eb",
    "db7435818cabed2a94d3ad2d3aa755cc2db3d1087d82394a8afbb63cc656db65",
    "e02762dde782284d2aa371571db1a0de8a5a198ff0ac7b158d879f74199b94c7",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _unwalled(args: dict | None) -> dict | None:
    if not args:
        return args
    return {k: v for k, v in args.items() if k != "wall_us"}


def _story_shas(chrome: dict, jsonl_rows: list[dict], summary) -> tuple:
    """(Chrome export, JSONL stream, summary) with wall residue masked."""
    chrome_rows = [
        dict(row, args=_unwalled(row.get("args")))
        for row in chrome["traceEvents"]
    ]
    stream = [dict(row, args=_unwalled(row["args"])) for row in jsonl_rows]
    return (
        _sha(json.dumps(chrome_rows, sort_keys=True)),
        _sha(json.dumps(stream, sort_keys=True)),
        _sha(repr(dataclasses.asdict(summary))),
    )


@pytest.fixture(scope="module")
def storm_tracer() -> Tracer:
    outcome = run_endurance(
        EnduranceConfig(seed=7, adaptive=True, domains=True),
        limits=TEST_LIMITS,
    )
    assert outcome.tracer.evicted == 0
    return outcome.tracer


class TestStoryPins:
    def test_endurance_trace_is_what_it_was(self, storm_tracer):
        assert storm_tracer.recorded == 25_550
        assert ENDURANCE_PINS == _story_shas(
            to_chrome_trace(storm_tracer),
            [event_to_json(event) for event in storm_tracer],
            summarize(storm_tracer),
        )

    def test_readers_stream_a_tracer_or_take_any_iterable(
        self, storm_tracer, tmp_path
    ):
        """The stored rows and the rebuilt events tell one story."""
        events = list(storm_tracer)
        assert summarize(storm_tracer) == summarize(events)
        assert summarize(storm_tracer) == summarize(iter(storm_tracer))
        chrome = to_chrome_trace(storm_tracer)
        assert to_chrome_trace(event for event in events) == chrome
        ours = write_jsonl(storm_tracer, tmp_path / "tracer.jsonl")
        theirs = write_jsonl((e for e in events), tmp_path / "events.jsonl")
        assert ours.read_bytes() == theirs.read_bytes()
        assert len(ours.read_text().splitlines()) == len(storm_tracer)

    def test_cli_trace_scenario_is_what_it_was(self, tmp_path):
        """The CI trace-smoke invocation."""
        out, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
        argv = "trace ici --nodes 16 --groups 4 --blocks 4 --txs 4".split()
        assert main([*argv, "--out", str(out), "--jsonl", str(jsonl)]) == 0
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(rows) == 887
        # The JSONL stream is full-fidelity: rebuild the events from it
        # (by keyword) and summarise the raw list.
        events = [
            TraceEvent(**{**row, "track": tuple(row["track"])})
            for row in rows
        ]
        assert CLI_TRACE_PINS == _story_shas(
            json.loads(out.read_text()), rows, summarize(events)
        )


class TestEventShape:
    def test_a_node_has_one_track_object(self, storm_tracer):
        """The observer builds a node's track once; its events share it."""
        tracks: dict[tuple, tuple] = {}
        for event in storm_tracer:
            if event.track[0] == "node":
                assert tracks.setdefault(event.track[1], event.track) is (
                    event.track
                )
        assert len(tracks) >= 15
        assert all(
            track == node_track(node_id) for node_id, track in tracks.items()
        )

    def test_an_event_is_an_immutable_seven_field_row(self):
        """No wall-clock stamp: an event is its virtual story."""
        assert TraceEvent._fields == (
            "name", "phase", "ts", "dur", "track", "category", "args",
        )  # fmt: skip
        event = TraceEvent(
            name="block_body", phase="i", ts=1.5, dur=0.0,
            track=node_track(3), category="send",
        )  # fmt: skip
        assert event.args is None
        assert event == TraceEvent(
            "block_body", "i", 1.5, 0.0, node_track(3), "send", None
        )
        with pytest.raises(AttributeError):
            event.ts = 2.0
        with pytest.raises(AttributeError):
            event.extra = 1
        # What the tracer records is that same type, oldest first.
        tracer = Tracer()
        tracer.instant("block_body", node_track(3), ts=1.5, category="send")
        tracer.complete("late", node_track(3), 1.0, 0.75)
        first, second = list(tracer)
        assert type(first) is TraceEvent
        assert first == event
        assert (second.name, second.phase, second.ts, second.dur) == (
            "late", "X", 1.0, 0.75,
        )  # fmt: skip
