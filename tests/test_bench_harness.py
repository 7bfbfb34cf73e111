"""Tests for the drift-gate harness (repro.bench) and ``repro bench``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.bench import runner
from repro.bench.runner import BenchError, drift, measure
from repro.bench.workload import BenchWorkload, simulated_metrics
from repro.cli import main


def fake_deployment(now=10.0, messages=100, nbytes=5000, processed=400):
    """A minimal deployment facade with the metric surface the bench reads."""
    return SimpleNamespace(
        network=SimpleNamespace(
            now=now,
            traffic=SimpleNamespace(
                total_messages=messages, total_bytes=nbytes
            ),
            clock=SimpleNamespace(processed=processed),
        ),
        metrics=SimpleNamespace(
            router_stats=SimpleNamespace(
                sends={"block_body": 10},
                send_bytes={"block_body": 4000},
                deliveries={"block_body": 9, "header_announce": 50},
            )
        ),
    )


class TestSimulatedMetrics:
    def test_reads_clock_traffic_and_router(self):
        metrics = simulated_metrics(fake_deployment())
        assert metrics["virtual_seconds"] == 10.0
        assert metrics["messages"] == 100
        assert metrics["bytes"] == 5000
        assert metrics["events_processed"] == 400
        assert metrics["message_kinds"]["block_body"] == {
            "sends": 10,
            "send_bytes": 4000,
            "deliveries": 9,
        }
        # Kinds seen only on delivery still appear, with zero sends.
        assert metrics["message_kinds"]["header_announce"]["sends"] == 0


class TestDiscovery:
    def test_all_experiments_discovered(self):
        workloads = runner.discover_workloads()
        # E20 is retired: its DHT lookup duplicated the placement plan.
        assert [w.bench_id for w in workloads] == [
            f"e{i}" for i in range(1, 22) if i != 20
        ]

    def test_seed_determinism_across_independent_runs(self):
        for workload in runner.discover_workloads():
            if workload.bench_id in ("e8", "e17"):
                assert measure(workload) == measure(workload)


class TestRunnerProtocol:
    def test_measure_returns_labelled_simulated_metrics(self):
        workload = BenchWorkload(
            bench_id="w1",
            title="synthetic",
            run=lambda: [("only", fake_deployment())],
        )
        assert measure(workload) == {
            "only": simulated_metrics(fake_deployment())
        }

    def test_nondeterministic_workload_is_rejected(self):
        counter = iter(range(100))

        def drifting():
            return [("only", fake_deployment(messages=next(counter)))]

        workload = BenchWorkload(bench_id="bad", title="", run=drifting)
        with pytest.raises(BenchError, match="not\\s+deterministic"):
            measure(workload)

    def test_calibration_kernel_times_positive(self):
        assert runner.calibrate() > 0


class TestDrift:
    BASE = {"ici": {"virtual_seconds": 1.0, "messages": 7}}

    def test_equal_maps_have_no_drift(self):
        assert drift("e1", self.BASE, json.loads(json.dumps(self.BASE))) == []

    def test_changed_key_is_named_old_to_new(self):
        moved = {"ici": {"virtual_seconds": 2.0, "messages": 7}}
        assert drift("e1", self.BASE, moved) == [
            "e1/ici: virtual_seconds 1.0 -> 2.0"
        ]

    def test_missing_and_extra_labels_are_drift(self):
        measured = {"full": self.BASE["ici"]}
        assert drift("e1", self.BASE, measured) == [
            "e1/full: not in baseline",
            "e1/ici: missing from this run",
        ]

    def test_id_known_to_one_side_only_is_drift(self):
        assert drift("e99", None, self.BASE) == ["e99: not in baseline"]
        assert drift("e99", self.BASE, None) == [
            "e99: missing from this run"
        ]


@pytest.fixture
def two_kernel_gate(monkeypatch, tmp_path):
    """``repro bench`` over e1 + e17 and a tmp baseline holding just them.

    Keeps the exit-code cases cheap; the whole tree is gated once in
    ``TestBenchCli.test_tree_has_no_drift`` and per kernel in
    ``tests/test_bench_drift.py``.
    """
    kept = [
        w for w in runner.discover_workloads() if w.bench_id in ("e1", "e17")
    ]
    committed = runner.load_baseline()
    monkeypatch.setattr(runner, "discover_workloads", lambda: kept)
    monkeypatch.setattr(runner, "BASELINE", tmp_path / "baseline.json")
    runner.write_baseline({w.bench_id: committed[w.bench_id] for w in kept})
    return runner.BASELINE


class TestBenchCli:
    def test_tree_has_no_drift(self, capsys):
        assert main(["bench"]) == 0
        assert capsys.readouterr().out.startswith("RESULT: pass (20 kernels")

    def test_one_edited_integer_fails_and_is_named(
        self, two_kernel_gate, capsys
    ):
        edited = runner.load_baseline()
        was = edited["e17"]["n24"]["messages"]
        edited["e17"]["n24"]["messages"] = was + 1
        runner.write_baseline(edited)
        assert main(["bench"]) == 1
        out = capsys.readouterr().out
        assert f"e17/n24: messages {was + 1} -> {was}" in out
        assert "RESULT: FAIL" in out

    def test_ids_must_match_the_kernels(self, two_kernel_gate, capsys):
        renamed = runner.load_baseline()
        renamed["e99"] = renamed.pop("e1")
        runner.write_baseline(renamed)
        assert main(["bench"]) == 1
        out = capsys.readouterr().out
        assert "e1: not in baseline" in out
        assert "e99: missing from this run" in out

    def test_write_baseline_round_trips_to_zero_drift(
        self, two_kernel_gate, capsys
    ):
        committed = two_kernel_gate.read_bytes()
        two_kernel_gate.write_text("{}")
        assert main(["bench"]) == 1
        assert main(["bench", "--write-baseline"]) == 0
        assert two_kernel_gate.read_bytes() == committed
        assert main(["bench"]) == 0

    @pytest.mark.parametrize(
        "removed",
        [
            ["--quick"],
            ["--full"],
            ["--check"],
            ["--tolerance", "0.5"],
            ["--filter", "e8"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_removed_flags_are_rejected(self, removed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *removed])
        assert exit_info.value.code == 2
        assert removed[0] in capsys.readouterr().err
