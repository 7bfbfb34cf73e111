"""Tests for the structured tracing subsystem (:mod:`repro.obs`).

Covers the acceptance surface of the observability PR: ring-buffer
bounding and eviction, the disabled-path no-op contract, span nesting
across simclock callbacks, fault/retry event capture under a seeded
fault plan, Chrome trace-event export + schema validation (one track
per node), and — the load-bearing guarantee — that simulated metrics
stay byte-identical with tracing on.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.workload import simulated_metrics
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ObservabilityError
from repro.net.simclock import SimClock
from repro.obs.export import (
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
    Tracer,
    active_tracer,
    node_track,
    tracing,
)
from repro.sim.chaos import ChaosConfig, build_scenario, run_chaos
from repro.sim.runner import ScenarioRunner

from tests.conftest import TEST_LIMITS

TRACK = ("sim", "test")


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
    with tracing(tracer):
        deployment = ici_deployment()
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
        names = [event.name for event in tracer.events()]
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

        first, second, bare, empty, null = tracer.events()
        recorded = {"to": 3, "bytes": 120, "nested": [1, {"a": None}]}
        assert first.args == second.args == recorded
        assert list(first.args) == ["to", "bytes", "nested"]
        assert bare.args is None
        assert empty.args == {} and type(empty.args) is dict
        assert list(null.args.items()) == [("b", None), ("a", 1)]
        # Two reads of one event: equal, distinct, independently mutable.
        again = tracer.events()[0]
        assert again == first and again.args is not first.args
        first.args["bytes"] = -1
        assert tracer.events()[0].args == recorded


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
        config = ChaosConfig(seed=3, n_blocks=2, queries=0, drop_rate=0.1)
        deployment, _, injector = build_scenario(
            config, TEST_LIMITS, config.fault_config()
        )
        hooks = {
            name: list(bound)
            for name, bound in deployment.router._hooks.items()
        }
        observers = list(deployment.router._observers)
        slots = (deployment.network.clock, injector, deployment.repair)
        assert deployment.network.faults is injector

        tracer = Tracer(enabled=False, trace_callbacks=True)
        assert install_tracing(deployment, tracer) is None
        assert deployment.router._hooks == hooks
        assert deployment.router._observers == observers
        assert [slot._tracer for slot in slots] == [None, None, None]

        # The control: the same call with a recording tracer attaches.
        assert isinstance(
            install_tracing(deployment, Tracer(trace_callbacks=True)),
            TracingObserver,
        )
        assert deployment.router._hooks != hooks
        assert None not in [slot._tracer for slot in slots]

    def test_enabled_tracer_without_clock_demands_explicit_ts(self):
        tracer = Tracer()
        tracer.instant("ok", TRACK, ts=1.0)
        with pytest.raises(ObservabilityError):
            tracer.instant("no-clock", TRACK)


class TestActiveTracer:
    def test_tracing_scopes_the_active_tracer(self):
        assert active_tracer() is None
        tracer = Tracer()
        with tracing(tracer):
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_two_active_tracers_conflict(self):
        with tracing(Tracer()):
            with pytest.raises(ObservabilityError):
                with tracing(Tracer()):
                    pass  # pragma: no cover
        assert active_tracer() is None

    def test_deployments_self_attach_inside_the_scope(self):
        tracer = Tracer()
        with tracing(tracer):
            traced = ici_deployment()
        untraced = ici_deployment()
        assert any(
            isinstance(obs, TracingObserver)
            for obs in traced.router._observers
        )
        assert not any(
            isinstance(obs, TracingObserver)
            for obs in untraced.router._observers
        )


class TestSpans:
    def test_nested_spans_record_innermost_first(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.schedule(1.0, lambda: None)
            clock.run()
            with tracer.span("inner"):
                clock.schedule(2.0, lambda: None)
                clock.run()
        inner, outer = tracer.events()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.track == outer.track == PHASE_TRACK
        assert inner.ts == 1.0 and inner.dur == 2.0
        assert outer.ts == 0.0 and outer.dur == 3.0
        assert outer.args["wall_us"] >= inner.args["wall_us"]

    def test_spans_survive_simclock_callbacks(self):
        """A span opened around clock.run() covers callback activity."""
        clock = SimClock()
        tracer = Tracer(clock=clock)
        clock.attach_tracer(tracer)

        def tick(depth: int) -> None:
            if depth:
                clock.schedule(0.5, tick, depth - 1)

        with tracer.span("drive"):
            clock.schedule(0.5, tick, 2)
            clock.run()
        spans = [e for e in tracer.events() if e.track == PHASE_TRACK]
        callbacks = [e for e in tracer.events() if e.track == CLOCK_TRACK]
        (drive,) = spans
        assert drive.ts == 0.0 and drive.dur == 1.5
        assert len(callbacks) == 3
        assert all(c.category == "callback" for c in callbacks)
        assert all("tick" in c.name for c in callbacks)
        assert all(c.args["wall_us"] >= 0 for c in callbacks)
        # every callback executed inside the drive span's window
        assert all(drive.ts <= c.ts <= drive.ts + drive.dur
                   for c in callbacks)


class TestTracedDeployment:
    def test_queue_latency_spans_from_send_to_deliver(self):
        tracer, _ = traced_run()
        delivers = [
            e for e in tracer.events()
            if e.category == "deliver" and e.phase == "X"
        ]
        sends = [e for e in tracer.events() if e.category == "send"]
        assert sends and delivers
        assert all(e.dur > 0 for e in delivers)
        assert all(e.track[0] == "node" for e in sends + delivers)
        assert all(e.args["bytes"] > 0 for e in delivers)

    def test_finalize_instants_mark_consensus(self):
        tracer, _ = traced_run()
        finals = [
            e for e in tracer.events() if e.category == "finalize"
        ]
        assert finals
        assert all(e.args["accepted"] for e in finals)

    def test_simulated_metrics_identical_with_tracing_on(self):
        """The PR's acceptance pin: tracing must not move the simulation."""

        def run_once(trace: bool) -> dict:
            if trace:
                tracer = Tracer(trace_callbacks=True)
                with tracing(tracer):
                    deployment = ici_deployment()
                    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
                    runner.produce_blocks(3, txs_per_block=2)
            else:
                deployment = ici_deployment()
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
        outcome = run_chaos(
            ChaosConfig(
                seed=11, n_blocks=4, queries=4, drop_rate=0.3, crash_count=1
            ),
            limits=TEST_LIMITS,
            tracer=tracer,
        )
        return tracer, outcome

    def test_fault_events_match_the_injector_stats(self, lossy):
        tracer, outcome = lossy
        faults = [e for e in tracer.events() if e.track == FAULTS_TRACK]
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
        retries = [e for e in tracer.events() if e.category == "retry"]
        timeouts = [e for e in tracer.events() if e.category == "timeout"]
        assert len(retries) == sum(outcome.retries.values())
        assert len(timeouts) == sum(outcome.timeouts.values())

    def test_phase_spans_tell_the_chaos_story(self, lossy):
        tracer, _ = lossy
        phases = {
            e.name for e in tracer.events() if e.track == PHASE_TRACK
        }
        assert {"produce:degraded", "heal:reconcile"} <= phases

    def test_outcome_carries_latency_percentiles(self, lossy):
        _, outcome = lossy
        assert outcome.latency_percentiles
        for stats in outcome.latency_percentiles.values():
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
            assert stats["p99"] <= stats["max"]


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
        assert all("wall" in row for row in rows)

    def test_multi_deployment_traces_keep_labels_apart(self):
        tracer = Tracer()
        with tracing(tracer):
            for deployment in (ici_deployment(9), ici_deployment(9)):
                runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
                runner.produce_blocks(2, txs_per_block=2)
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(n.startswith("ICIDeployment node") for n in names)
        assert any(n.startswith("ICIDeployment#2 node") for n in names)


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
            [e for e in tracer.events() if e.category == "send"]
        )
        assert recvs == len(
            [e for e in tracer.events() if e.category == "deliver"]
        )
        assert set(summary.nodes) <= {
            ("ICIDeployment", node_id) for node_id in deployment.nodes
        }
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
        summary = summarize(tracer.events())
        assert summary.nodes[("", 3)].sends == 1
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

    def test_trace_chaos_requires_ici(self, capsys):
        from repro.cli import main

        code = main(["trace", "full", "--chaos"])
        assert code == 2
        assert "ici" in capsys.readouterr().err


class TestTraceProfile:
    def export_trace(self, tmp_path):
        tracer = Tracer()
        clock = SimClock()
        tracer.bind_clock(clock)

        def cheap():
            pass

        def costly():
            pass

        tracer.callback_event(cheap, 1.0, 10e-6)
        tracer.callback_event(costly, 1.5, 100e-6)
        tracer.callback_event(costly, 2.0, 300e-6)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(to_chrome_trace(tracer)))
        return path

    def test_aggregates_wall_cost_per_callback(self, tmp_path):
        from repro.obs.profile import profile_chrome_trace

        profiles = profile_chrome_trace(self.export_trace(tmp_path))
        assert [p.calls for p in profiles] == [2, 1]
        top = profiles[0]
        assert "costly" in top.name
        assert top.total_us == pytest.approx(400.0)
        assert top.max_us == pytest.approx(300.0)
        assert top.mean_us == pytest.approx(200.0)

    def test_rejects_non_trace_files(self, tmp_path):
        from repro.errors import ObservabilityError
        from repro.obs.profile import profile_chrome_trace

        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        with pytest.raises(ObservabilityError):
            profile_chrome_trace(bogus)
        with pytest.raises(ObservabilityError):
            profile_chrome_trace(tmp_path / "missing.json")

    def test_cli_renders_ranked_table(self, tmp_path, capsys):
        from repro.cli import main

        path = self.export_trace(tmp_path)
        assert main(["trace", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "| callback | calls | total ms" in out
        # Ranked: the expensive handler is listed first.
        assert out.index("costly") < out.index("cheap")

    def test_cli_requires_one_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "profile"]) == 2
        assert "exactly one" in capsys.readouterr().err


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
