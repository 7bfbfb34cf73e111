"""The recorded story, pinned — and the shape of one recorded event.

The tracer is on in every ``repro chaos`` / ``repro endurance`` run, so
its record path gets optimised; what it *records* must not move when it
does.  The shas below were taken at the commit before the tuple-backed
:class:`~repro.obs.tracer.TraceEvent` (PR 18), over everything an export
or a summary shows except wall-clock residue (the ``wall`` stamp and
span ``wall_us`` args, masked the way :mod:`repro.obs.diff` masks them).
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
    "1906dba1fd52cd089c45ae6153961309c2f852ac679f64880ffb7afdf3b78c26",
    "f08947d54015be50e5d55e0f298bfb92dad9dcd7718eb616ee30c24daeb3c5f8",
    "6f8a9db0edb62fdf6292d3640a528029ed3925fde326616448ac5f1b3fbd69e2",
)
CLI_TRACE_PINS = (
    "05c16c4f005aa0e69f802b8c4f0472b848bb1cb3e73fe15f85fb716c25da5625",
    "9f72a51523061aa30fe99d91c802c3c3b1a71faa85232036a3d01091f4abe584",
    "851d88ce115e0ce117060ceb7119a4a0ad8de209b4e7e18b343ad32f0613b32f",
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
    stream = [
        {
            key: _unwalled(value) if key == "args" else value
            for key, value in row.items()
            if key != "wall"
        }
        for row in jsonl_rows
    ]
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
            [event_to_json(event) for event in storm_tracer.events()],
            summarize(storm_tracer),
        )

    def test_readers_stream_a_tracer_or_take_any_iterable(
        self, storm_tracer, tmp_path
    ):
        """The stored rows and the rebuilt events tell one story."""
        events = storm_tracer.events()
        assert summarize(storm_tracer) == summarize(events)
        assert summarize(storm_tracer) == summarize(iter(storm_tracer))
        chrome = to_chrome_trace(storm_tracer)
        assert to_chrome_trace(event for event in events) == chrome
        ours = write_jsonl(storm_tracer, tmp_path / "tracer.jsonl")
        theirs = write_jsonl((e for e in events), tmp_path / "events.jsonl")
        assert ours.read_bytes() == theirs.read_bytes()
        assert len(ours.read_text().splitlines()) == len(storm_tracer)

    def test_cli_trace_scenario_is_what_it_was(self, tmp_path):
        """The CI trace-smoke invocation, callback spans included."""
        out, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
        argv = "trace ici --nodes 16 --groups 4 --blocks 4 --txs 4".split()
        assert main([*argv, "--out", str(out), "--jsonl", str(jsonl)]) == 0
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(rows) == 1_491
        # The JSONL stream is full-fidelity: rebuild the events from it
        # (by keyword) and summarise the raw list.
        events = [
            TraceEvent(
                **{
                    **row,
                    "track": (
                        row["track"][0],
                        tuple(row["track"][1])
                        if isinstance(row["track"][1], list)
                        else row["track"][1],
                    ),
                }
            )
            for row in rows
        ]
        assert CLI_TRACE_PINS == _story_shas(
            json.loads(out.read_text()), rows, summarize(events)
        )


class TestEventShape:
    def test_a_node_has_one_track_object(self, storm_tracer):
        """The observer builds a node's track once; its events share it."""
        tracks: dict[tuple, tuple] = {}
        for event in storm_tracer.events():
            if event.track[0] == "node":
                assert tracks.setdefault(event.track[1], event.track) is (
                    event.track
                )
        assert len(tracks) >= 15
        assert all(
            track == node_track(node_id, label)
            for (label, node_id), track in tracks.items()
        )

    def test_an_event_is_an_immutable_eight_field_row(self):
        assert TraceEvent._fields == (
            "name", "phase", "ts", "dur", "track", "category", "wall", "args",
        )  # fmt: skip
        event = TraceEvent(
            name="block_body", phase="i", ts=1.5, dur=0.0,
            track=node_track(3), category="send", wall=0.0,
        )  # fmt: skip
        assert event.args is None
        assert event == TraceEvent(
            "block_body", "i", 1.5, 0.0, node_track(3), "send", 0.0, None
        )
        with pytest.raises(AttributeError):
            event.ts = 2.0
        with pytest.raises(AttributeError):
            event.extra = 1
        # What the tracer records is that same type, oldest first.
        tracer = Tracer()
        tracer.instant("block_body", node_track(3), ts=1.5, category="send")
        tracer.complete("late", node_track(3), 1.0, 0.75)
        first, second = tracer.events()
        assert type(first) is TraceEvent
        assert first._replace(wall=0.0) == event
        assert (second.name, second.phase, second.ts, second.dur) == (
            "late", "X", 1.0, 0.75,
        )  # fmt: skip
