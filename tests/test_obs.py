"""Tests for the structured tracing subsystem (:mod:`repro.obs`).

Covers the acceptance surface of the observability PR: ring-buffer
bounding and eviction, the disabled-path no-op contract, span nesting
across simclock callbacks, fault/retry event capture under a seeded
fault plan, Chrome trace-event export + schema validation (one track
per node), and — the load-bearing guarantee — that simulated metrics
stay byte-identical with tracing on.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.workload import simulated_metrics
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ObservabilityError
from repro.net.message import MessageKind, sized_message
from repro.net.simclock import SimClock
from repro.obs.export import (
    GROUP_PIDS,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hooks import TracingObserver, install_tracing
from repro.obs.summary import TIMELINE_BUCKETS, percentile, summarize
from repro.obs.tracer import (
    CLOCK_TRACK,
    FAULTS_TRACK,
    PHASE_TRACK,
    PROTO_GROUP,
    TraceEvent,
    Tracer,
    node_track,
)
from repro.sim.chaos import EnduranceConfig, build_scenario, run_endurance
from repro.sim.faults import FaultConfig, FaultInjector, PartitionWindow
from repro.sim.runner import ScenarioRunner

from tests.conftest import TEST_LIMITS, chaos_config

TRACK = ("sim", "test")
SRC = Path(__file__).resolve().parent.parent / "src"


def bound_tracer(**kwargs) -> Tracer:
    """A tracer with a fresh clock already bound (ts-less calls work)."""
    tracer = Tracer(**kwargs)
    tracer.bind_clock(SimClock())
    return tracer


def ici_deployment(n_nodes: int = 12, **kwargs) -> ICIDeployment:
    kwargs.setdefault("n_clusters", 3)
    kwargs.setdefault("replication", 1)
    kwargs.setdefault("limits", TEST_LIMITS)
    return ICIDeployment(n_nodes, config=ICIConfig(**kwargs))


def traced_run(tracer: Tracer | None = None, blocks: int = 3):
    """Stream a few blocks through an ICI deployment under tracing."""
    tracer = tracer or Tracer()
    deployment = ici_deployment()
    install_tracing(deployment, tracer)
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    runner.produce_blocks(blocks, txs_per_block=2)
    return tracer, deployment


class TestRingBuffer:
    def test_bounded_with_oldest_evicted_first(self):
        tracer = bound_tracer(capacity=10)
        for index in range(25):
            tracer.instant(f"e{index}", TRACK, ts=float(index))
        assert len(tracer) == 10
        assert tracer.recorded == 25
        assert tracer.evicted == 15
        names = [event.name for event in tracer]
        assert names == [f"e{i}" for i in range(15, 25)]

    def test_under_capacity_evicts_nothing(self):
        tracer = bound_tracer(capacity=100)
        for index in range(5):
            tracer.instant("e", TRACK, ts=float(index))
        assert tracer.evicted == 0 and len(tracer) == 5

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ObservabilityError):
            Tracer(capacity=0)

    def test_recorded_args_are_a_snapshot(self):
        """A producer may reuse its dict; a reader may edit what it got."""
        tracer = bound_tracer(capacity=8)
        args = {"to": 3, "bytes": 120, "nested": [1, {"a": None}]}
        tracer.instant("send", TRACK, ts=0.0, args=args)
        tracer.complete("deliver", TRACK, 0.0, 1.0, args=args)
        args["bytes"] = 0
        args["late"] = True
        tracer.instant("bare", TRACK, ts=2.0)
        tracer.instant("empty", TRACK, ts=3.0, args={})
        tracer.instant("null", TRACK, ts=4.0, args={"b": None, "a": 1})

        first, second, bare, empty, null = list(tracer)
        recorded = {"to": 3, "bytes": 120, "nested": [1, {"a": None}]}
        assert first.args == second.args == recorded
        assert list(first.args) == ["to", "bytes", "nested"]
        assert bare.args is None
        assert empty.args == {} and type(empty.args) is dict
        assert list(null.args.items()) == [("b", None), ("a", 1)]
        # Two reads of one event: equal, distinct, independently mutable.
        again = list(tracer)[0]
        assert again == first and again.args is not first.args
        first.args["bytes"] = -1
        assert list(tracer)[0].args == recorded


class TestDisabledTracer:
    def test_record_methods_are_no_ops(self):
        tracer = Tracer(enabled=False)  # note: no clock bound either
        tracer.instant("a", TRACK)
        tracer.complete("b", TRACK, 0.0, 1.0)
        tracer.callback_event(len, 0.0, 0.001)
        with tracer.span("c"):
            pass
        assert len(tracer) == 0 and tracer.recorded == 0

    def test_disabled_span_reuses_one_null_context(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")

    def test_installing_a_disabled_tracer_attaches_nothing(self):
        """Disabled means free for the observer too, not just the sink."""
        config = chaos_config(seed=3, n_blocks=2, queries=0, drop_rate=0.1)
        deployment, _, injector = build_scenario(
            config, TEST_LIMITS, config.fault_config()
        )
        hooks = {
            name: list(bound)
            for name, bound in deployment.router._hooks.items()
        }
        observers = list(deployment.router._observers)
        assert deployment.network.faults is injector

        tracer = Tracer(enabled=False)
        assert install_tracing(deployment, tracer) is None
        assert deployment.router._hooks == hooks
        assert deployment.router._observers == observers
        assert (injector._observer, deployment.tracer) == (None, None)

        # The control: the same call with a recording tracer attaches.
        tracer = Tracer()
        observer = install_tracing(deployment, tracer)
        assert isinstance(observer, TracingObserver)
        assert deployment.router._hooks != hooks
        assert (injector._observer, deployment.tracer) == (observer, tracer)

    def test_enabled_tracer_without_clock_demands_explicit_ts(self):
        tracer = Tracer()
        tracer.instant("ok", TRACK, ts=1.0)
        with pytest.raises(ObservabilityError):
            tracer.instant("no-clock", TRACK)


class TestInstallTracing:
    def test_only_the_installed_deployment_is_traced(self):
        traced = ici_deployment()
        install_tracing(traced, Tracer())
        untraced = ici_deployment()
        assert any(
            isinstance(obs, TracingObserver)
            for obs in traced.router._observers
        )
        assert not any(
            isinstance(obs, TracingObserver)
            for obs in untraced.router._observers
        )


    @pytest.mark.usefixtures("small_heat")
    def test_a_tier_enabled_after_install_is_traced(self):
        """Engines read the deployment's one tracer slot, so the order of
        ``install_tracing`` and ``enable_archival_tier`` does not matter."""
        from tests.test_archival import heat_one_block, sweep

        deployment = ici_deployment(6, n_clusters=1, replication=2)
        tracer = Tracer()
        install_tracing(deployment, tracer)
        tier = deployment.enable_archival_tier()
        report = ScenarioRunner(
            deployment, limits=TEST_LIMITS, seed=7
        ).produce_blocks(6, txs_per_block=2)
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        assert tier.stats.blocks_archived > 0
        names = {event.name for event in tracer}
        assert {"heat_reclassified", "block_archived"} <= names


class TestSpans:
    def test_nested_spans_record_innermost_first(self):
        clock = SimClock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        with tracer.span("outer"):
            clock.schedule(1.0, lambda: None)
            clock.run()
            with tracer.span("inner"):
                clock.schedule(2.0, lambda: None)
                clock.run()
        inner, outer = list(tracer)
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.track == outer.track == PHASE_TRACK
        assert inner.ts == 1.0 and inner.dur == 2.0
        assert outer.ts == 0.0 and outer.dur == 3.0
        assert outer.args["wall_us"] >= inner.args["wall_us"]

    def test_spans_survive_simclock_callbacks(self):
        """A span opened around clock.run() covers the callbacks' virtual
        time; the clock itself records nothing."""
        clock = SimClock()
        tracer = Tracer()
        tracer.bind_clock(clock)
        ticks = []

        def tick(depth: int) -> None:
            ticks.append(clock.now)
            if depth:
                clock.schedule(0.5, tick, depth - 1)

        with tracer.span("drive"):
            clock.schedule(0.5, tick, 2)
            clock.run()
        (drive,) = list(tracer)
        assert drive.track == PHASE_TRACK
        assert drive.ts == 0.0 and drive.dur == 1.5
        assert ticks == [0.5, 1.0, 1.5]
        assert all(drive.ts <= at <= drive.ts + drive.dur for at in ticks)
        assert not any(e.track == CLOCK_TRACK for e in tracer)


class TestTracedDeployment:
    def test_queue_latency_spans_from_send_to_deliver(self):
        tracer, _ = traced_run()
        delivers = [
            e for e in tracer
            if e.category == "deliver" and e.phase == "X"
        ]
        sends = [e for e in tracer if e.category == "send"]
        assert sends and delivers
        assert all(e.dur > 0 for e in delivers)
        assert all(e.track[0] == "node" for e in sends + delivers)
        assert all(e.args["bytes"] > 0 for e in delivers)

    def test_undelivered_sends_evict_oldest_first(self, monkeypatch):
        """Drops and dead recipients leave sends pending; once the map is
        full the oldest go, so only their deliveries lose the span."""
        monkeypatch.setattr("repro.obs.hooks._PENDING_SEND_LIMIT", 4)
        tracer = Tracer()
        observer = TracingObserver(tracer, SimClock())
        messages = [
            sized_message(MessageKind.BLOCK_BODY, 0, 1, None, 10)
            for _ in range(10)
        ]
        for message in messages:
            observer.on_send(message)
        for message in messages:
            observer.on_deliver(None, message)
        phases = [e.phase for e in tracer if e.category == "deliver"]
        assert phases == ["i"] * 6 + ["X"] * 4

    @pytest.mark.parametrize("weather", ["drop", "stall", "partition"])
    def test_a_send_the_fault_layer_loses_stops_pending(self, weather):
        """A lost send can never be delivered: the observer records the
        fault instant and forgets the send, so nothing stays pending."""
        deployment = ici_deployment()
        injector = FaultInjector.install(
            deployment.network,
            FaultConfig(drop_rate=1.0 if weather == "drop" else 0.0),
        )
        tracer = Tracer()
        observer = install_tracing(deployment, tracer)
        if weather == "stall":
            for node_id in sorted(deployment.nodes):
                injector.stall(node_id)
        elif weather == "partition":
            injector.partition(
                PartitionWindow(
                    frozenset(n for n in deployment.nodes if n % 2),
                    frozenset(n for n in deployment.nodes if not n % 2),
                )
            )
        runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
        runner.produce_blocks(1, txs_per_block=2)
        deployment.run()
        lost = {"drop": "drop", "stall": "stall_drop"}.get(
            weather, "partition_drop"
        )
        assert sum(e.category == "send" for e in tracer) > 0
        assert sum(e.name == lost for e in tracer) > 0
        assert len(observer._sent_at) == 0

    def test_finalize_instants_mark_consensus(self):
        tracer, _ = traced_run()
        finals = [
            e for e in tracer if e.category == "finalize"
        ]
        assert finals
        assert all(e.args["accepted"] for e in finals)

    def test_simulated_metrics_identical_with_tracing_on(self):
        """The PR's acceptance pin: tracing must not move the simulation."""

        def run_once(trace: bool) -> dict:
            deployment = ici_deployment()
            if trace:
                install_tracing(deployment, Tracer())
            runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
            runner.produce_blocks(3, txs_per_block=2)
            deployment.join_new_node()
            deployment.run()
            return simulated_metrics(deployment)

        plain = run_once(trace=False)
        traced = run_once(trace=True)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )


class TestFaultAndRetryCapture:
    @pytest.fixture(scope="class")
    def lossy(self):
        tracer = Tracer()
        outcome = run_endurance(
            chaos_config(
                seed=11, n_blocks=4, queries=4, drop_rate=0.3, crash_count=1
            ),
            limits=TEST_LIMITS,
            tracer=tracer,
        )
        return tracer, outcome

    def test_fault_events_match_the_injector_stats(self, lossy):
        tracer, outcome = lossy
        faults = [e for e in tracer if e.track == FAULTS_TRACK]
        by_name: dict[str, int] = {}
        for event in faults:
            by_name[event.name] = by_name.get(event.name, 0) + 1
        assert by_name.get("drop", 0) == outcome.fault_stats["dropped"]
        assert by_name.get("crash", 0) == outcome.fault_stats["crashes"]
        assert (
            by_name.get("recover", 0) == outcome.fault_stats["recoveries"]
        )
        dropped = [e for e in faults if e.name == "drop"]
        assert all(e.args["kind"] for e in dropped)

    def test_retry_and_timeout_events_flow_through(self, lossy):
        tracer, outcome = lossy
        retries = [e for e in tracer if e.category == "retry"]
        timeouts = [e for e in tracer if e.category == "timeout"]
        assert len(retries) == sum(outcome.retries.values())
        assert len(timeouts) == sum(outcome.timeouts.values())

    def test_phase_spans_tell_the_chaos_story(self, lossy):
        tracer, _ = lossy
        phases = {
            e.name for e in tracer if e.track == PHASE_TRACK
        }
        assert {"endurance:storm", "endurance:heal"} <= phases

    def test_outcome_carries_latency_percentiles(self, lossy):
        _, outcome = lossy
        assert outcome.latency_percentiles
        for stats in outcome.latency_percentiles.values():
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
            assert stats["p99"] <= stats["max"]

    def test_percentiles_are_summarized_from_the_trace_on_read(self):
        """The property over the finished trace equals a fresh summary
        of it, pinned on the chaos preset's zone-outage storm."""
        outcome = run_endurance(chaos_config(seed=42, domains=True))
        table = outcome.latency_percentiles
        assert table == summarize(outcome.tracer).latency_percentiles()
        # Pushed bodies plus every body-transfer reply (reads, repair
        # pulls, join and departure batches).
        assert table["block_body"]["count"] == 143
        assert hashlib.sha256(
            json.dumps(table, sort_keys=True).encode()
        ).hexdigest() == (
            "ab21eb2e224bee437e6d50fcd2c18689a3bbd05af35dc9e988b6da74f3d63dae"
        )


class TestOneRunTrace:
    def test_one_storage_series_per_cluster(self):
        """Finality, repair and the heat planner sample a cluster's
        ledger bytes into one series, and no track carries a class-name
        prefix."""
        outcome = run_endurance(
            EnduranceConfig(
                seed=42, n_nodes=15, n_clusters=3, n_blocks=6, adaptive=True
            )
        )
        payload = to_chrome_trace(outcome.tracer)
        assert validate_chrome_trace(payload) == []
        series = {
            event["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "C" and "cluster" in event["name"]
        }
        clusters = sorted(outcome.cluster_integrity)
        assert series == {f"cluster {c} ledger bytes" for c in clusters}
        proto_threads = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M"
            and event["name"] == "thread_name"
            and event["pid"] == GROUP_PIDS[PROTO_GROUP]
        }
        assert {"reliability", "repair", "heat"} <= proto_threads
        assert all(" " not in name for name in proto_threads)


class TestChromeExport:
    def test_export_validates_with_one_track_per_node(self):
        tracer, deployment = traced_run()
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        threads = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        node_tids = {
            e["tid"] for e in threads if e["args"]["name"].startswith("node ")
        }
        assert node_tids == set(deployment.nodes)

    def test_validator_flags_broken_documents(self):
        assert validate_chrome_trace([]) == ["payload is not a JSON object"]
        assert validate_chrome_trace({"traceEvents": []}) == [
            "traceEvents must be a non-empty list"
        ]
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Q", "pid": 1, "tid": 1, "ts": 0},
                    {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0},
                ]
            }
        )
        assert any("ph" in p for p in problems)
        assert any("dur" in p for p in problems)
        assert any("process_name" in p for p in problems)

    def test_write_round_trips_and_jsonl_keeps_fidelity(self, tmp_path):
        tracer, _ = traced_run()
        chrome = write_chrome_trace(tracer, tmp_path / "t.json")
        payload = json.loads(chrome.read_text())
        assert validate_chrome_trace(payload) == []
        jsonl = write_jsonl(tracer, tmp_path / "t.jsonl")
        rows = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
        ]
        assert len(rows) == len(tracer)
        # Every field of every event, and nothing else: an event keeps
        # no wall-clock stamp.
        assert all(tuple(row) == TraceEvent._fields for row in rows)

    def test_write_refuses_an_invalid_document(self, tmp_path):
        """The writer runs the schema check: an empty trace has no
        events and no metadata, so nothing is written."""
        with pytest.raises(ObservabilityError, match="invalid trace"):
            write_chrome_trace(Tracer(), tmp_path / "empty.json")
        assert not (tmp_path / "empty.json").exists()

    def test_a_tracer_records_one_run(self):
        """A second deployment's clock is refused: its node ids would
        land on the first run's node tracks."""
        tracer = Tracer()
        first, second = ici_deployment(9), ici_deployment(9)
        install_tracing(first, tracer)
        tracer.bind_clock(first.network.clock)  # the same run: no error
        with pytest.raises(ObservabilityError, match="another run"):
            install_tracing(second, tracer)
        with pytest.raises(ObservabilityError, match="another run"):
            tracer.bind_clock(SimClock())


class TestSummary:
    def test_percentile_is_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([7.0], 0.99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summarize_counts_traffic_and_phases(self):
        tracer, deployment = traced_run()
        summary = summarize(tracer)
        assert summary.events == len(tracer)
        assert summary.span_seconds > 0
        sends = sum(n.sends for n in summary.nodes.values())
        recvs = sum(n.receives for n in summary.nodes.values())
        assert sends == len(
            [e for e in tracer if e.category == "send"]
        )
        assert recvs == len(
            [e for e in tracer if e.category == "deliver"]
        )
        assert set(summary.nodes) <= set(deployment.nodes)
        for node in summary.nodes.values():
            assert len(node.timeline) == TIMELINE_BUCKETS
            assert sum(node.timeline) == node.sends + node.receives

    def test_latency_percentiles_are_ordered_per_kind(self):
        tracer, _ = traced_run()
        table = summarize(tracer).latency_percentiles()
        assert table
        assert list(table) == sorted(table)
        measured = [s for s in table.values() if s["count"]]
        assert measured
        for stats in measured:
            assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"]

    def test_summarize_accepts_raw_event_lists(self):
        tracer = bound_tracer()
        tracer.instant(
            "block_body",
            node_track(3),
            ts=1.0,
            category="send",
            args={"to": 4, "bytes": 100},
        )
        summary = summarize(list(tracer))
        assert summary.nodes[3].sends == 1
        assert summary.evicted == 0


class TestTraceCli:
    def test_trace_command_exports_valid_chrome_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "ici",
                "--nodes", "10",
                "--groups", "2",
                "--blocks", "2",
                "--txs", "2",
                "--queries", "2",
                "--out", str(out),
                "--summary", str(tmp_path / "summary.md"),
                "--jsonl", str(tmp_path / "trace.jsonl"),
            ]
        )
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        summary = (tmp_path / "summary.md").read_text()
        assert "## Delivery latency by message kind" in summary
        assert "## Per-node timelines" in summary
        assert (tmp_path / "trace.jsonl").exists()
        assert "trace written" in capsys.readouterr().out

    @pytest.mark.parametrize("capacity", ["0", "-3"])
    def test_trace_rejects_a_ring_below_one_event(self, capacity, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["trace", "ici", "--capacity", capacity])
        assert exited.value.code == 2
        assert "--capacity: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "profile", "trace.json"],
            ["trace", "ici", "--chaos"],
            ["trace", "ici", "--no-callback-spans"],
        ],
        ids=["trace-profile", "trace-chaos", "no-callback-spans"],
    )
    def test_removed_invocations_are_usage_errors(self, argv):
        """perfbench is the profiler and ``repro chaos --trace`` traces a
        storm: the old spellings fail in argparse."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2

    @pytest.mark.parametrize("buffered", [True, False])
    def test_a_closed_stdout_ends_quietly(self, tmp_path, buffered):
        """``repro trace diff A B | head``: a reader that has gone fails
        the run by its status alone, with nothing on stderr."""
        paths = []
        for name in ("a", "b"):
            tracer = bound_tracer()
            tracer.instant(name, TRACK, ts=0.0)
            paths.append(str(write_chrome_trace(tracer, tmp_path / name)))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "trace", "diff", *paths],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")


class TestCounterEvents:
    def make_tracer(self):
        tracer = Tracer()
        clock = SimClock()
        tracer.bind_clock(clock)
        return tracer

    def test_counter_rows_export_without_span_fields(self):
        tracer = self.make_tracer()
        from repro.obs.tracer import STORAGE_TRACK

        tracer.counter(
            "cluster 0 ledger bytes",
            STORAGE_TRACK,
            {"bytes": 4096},
            ts=1.0,
            category="storage",
        )
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        rows = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert len(rows) == 1
        row = rows[0]
        assert row["args"] == {"bytes": 4096}
        assert "dur" not in row
        assert "s" not in row

    def test_validator_flags_malformed_counters(self):
        base = {"name": "c", "ph": "C", "pid": 3, "tid": 0, "ts": 0}
        meta = [
            {"name": "process_name", "ph": "M", "pid": 3, "tid": 0,
             "ts": 0, "args": {"name": "simulator"}},
            {"name": "thread_name", "ph": "M", "pid": 3, "tid": 0,
             "ts": 0, "args": {"name": "storage"}},
        ]
        missing = validate_chrome_trace({"traceEvents": meta + [dict(base)]})
        assert any("non-empty object" in p for p in missing)
        bad_type = validate_chrome_trace(
            {"traceEvents": meta + [dict(base, args={"bytes": "big"})]}
        )
        assert any("numeric" in p for p in bad_type)
        bool_is_not_a_series = validate_chrome_trace(
            {"traceEvents": meta + [dict(base, args={"ok": True})]}
        )
        assert any("numeric" in p for p in bool_is_not_a_series)
        good = validate_chrome_trace(
            {"traceEvents": meta + [dict(base, args={"bytes": 1})]}
        )
        assert good == []

    def test_finalize_hook_samples_cluster_ledger_bytes(self):
        tracer, deployment = traced_run()
        payload = to_chrome_trace(tracer)
        counters = [
            e for e in payload["traceEvents"] if e["ph"] == "C"
        ]
        assert counters
        assert all("ledger bytes" in e["name"] for e in counters)
        # The series is monotone non-decreasing per cluster: ledgers grow.
        by_name: dict = {}
        for row in counters:
            by_name.setdefault(row["name"], []).append(
                (row["ts"], row["args"]["bytes"])
            )
        for series in by_name.values():
            values = [b for _, b in sorted(series)]
            assert values == sorted(values)


class TestTraceDiff:
    def payload(self, *rows):
        meta = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "ts": 0, "args": {"name": "nodes"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "ts": 0, "args": {"name": "node 0"}},
        ]
        return {"traceEvents": meta + list(rows)}

    def row(self, **overrides):
        base = {
            "name": "block_body", "ph": "i", "pid": 1, "tid": 0,
            "ts": 100.0, "cat": "send", "args": {"to": 1, "bytes": 7},
        }
        base.update(overrides)
        return base

    def test_identical_traces_diff_to_none(self):
        from repro.obs.diff import diff_traces, render_divergence

        a, b = self.payload(self.row()), self.payload(self.row())
        assert diff_traces(a, b) is None
        assert "identical" in render_divergence(None)

    def test_first_divergent_field_is_localized(self):
        from repro.obs.diff import diff_traces, render_divergence

        a = self.payload(self.row(), self.row(ts=200.0))
        b = self.payload(self.row(), self.row(ts=250.0))
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.index == 1
        assert divergence.fields == ("ts",)
        assert divergence.a_label == "nodes/node 0"
        text = render_divergence(divergence)
        assert "story event #1" in text
        assert "ts" in text
        assert "block_body" in text

    def test_metadata_rows_do_not_shift_indices(self):
        from repro.obs.diff import diff_traces

        a = self.payload(self.row())
        b = {"traceEvents": [self.row()]}  # no metadata at all
        assert diff_traces(a, b) is None

    def test_length_mismatch_reports_trace_end(self):
        from repro.obs.diff import diff_traces, render_divergence

        a = self.payload(self.row(), self.row(ts=200.0))
        b = self.payload(self.row())
        divergence = diff_traces(a, b)
        assert divergence is not None
        assert divergence.index == 1
        assert divergence.fields == ()
        assert divergence.b is None
        assert "ends before" in render_divergence(divergence)

    def test_wall_clock_residue_is_masked(self):
        from repro.obs.diff import diff_traces

        a = self.payload(
            self.row(ph="X", dur=5.0, args={"wall_us": 12.5})
        )
        b = self.payload(
            self.row(ph="X", dur=5.0, args={"wall_us": 99.9})
        )
        assert diff_traces(a, b) is None

    def test_unreadable_file_raises_observability_error(self, tmp_path):
        from repro.obs.diff import diff_traces

        good = tmp_path / "a.json"
        good.write_text(json.dumps(self.payload(self.row())))
        with pytest.raises(ObservabilityError):
            diff_traces(good, tmp_path / "missing.json")
        bad = tmp_path / "b.json"
        bad.write_text("not json")
        with pytest.raises(ObservabilityError):
            diff_traces(good, bad)

    def test_cli_unreadable_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "a.json"
        good.write_text(json.dumps(self.payload(self.row())))
        jsonl = tmp_path / "trace.jsonl"  # what `trace --jsonl` writes
        jsonl.write_text('{"ph": "X"}\n{"ph": "X"}\n')
        for argv in (
            ["trace", "diff", str(good), str(jsonl)],
            ["trace", "diff", str(good), str(tmp_path / "missing.json")],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("repro: error: cannot read trace"), err

    def test_cli_diff_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(self.payload(self.row())))
        b.write_text(json.dumps(self.payload(self.row(ts=999.0))))
        assert main(["trace", "diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "first divergence" in capsys.readouterr().out
        assert main(["trace", "diff", str(a)]) == 2
        assert "exactly two" in capsys.readouterr().err
        # Stray FILE operands on a recording scenario are a usage error.
        assert main(["trace", "ici", str(a), str(b)]) == 2
