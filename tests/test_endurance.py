"""Endurance runs: sustained churn under hostile weather, then self-heal.

:func:`repro.sim.chaos.run_endurance` composes every robustness layer at
once — message faults, a crash, a partition window, and a churn schedule
during production — then turns the anti-entropy sweep loose and audits.
These tests pin the acceptance scenario (integrity restored, repairs
actually happened, byte-identical reruns) and a golden signature so any
behavioural drift in the composed stack fails loudly and bisectably
(``repro trace diff`` localizes the first divergent event).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.sim.chaos import EnduranceConfig, EnduranceOutcome, run_endurance
from tests.conftest import TEST_LIMITS

#: The quick fixed-seed scenario the golden pin freezes.
GOLDEN_CONFIG = dict(seed=42, n_nodes=15, n_clusters=3, n_blocks=6, queries=4)

#: sha256 of the canonical-JSON signature of the golden run.  A change
#: here means the composed churn/fault/repair behaviour changed: verify
#: it is intentional (``repro trace diff`` two exported traces to find
#: the first divergent event), then update the pin.
GOLDEN_SIGNATURE_SHA = (
    "40b368e004932f6e0a62da2bc5e38054aa183e9efa3906dcad59a9c5fb82cf06"
)


def endurance(**kwargs) -> EnduranceOutcome:
    defaults = dict(GOLDEN_CONFIG)
    defaults.update(kwargs)
    return run_endurance(EnduranceConfig(**defaults), limits=TEST_LIMITS)


class TestAcceptance:
    def test_integrity_restored_with_real_repairs(self):
        """The PR's acceptance pin: 20% drop (the default), a crash, a
        partition window, sustained churn — and a healed end state that
        the sweep, not luck, produced."""
        outcome = endurance()
        assert outcome.integrity_restored, outcome.cluster_integrity
        assert outcome.replica_floor_met
        assert outcome.repair["blocks_re_replicated"] > 0
        assert outcome.repair["sweeps"] > 0
        assert outcome.blocks_produced == 6
        assert outcome.joins + outcome.leaves + outcome.churn_crashes > 0
        assert outcome.queries_completed == outcome.queries_attempted

    def test_repair_latency_is_measured(self):
        outcome = endurance()
        assert outcome.time_to_repair  # p50/p95 in virtual seconds
        assert outcome.time_to_repair["p50"] >= 0.0
        assert (
            outcome.time_to_repair["p95"] >= outcome.time_to_repair["p50"]
        )


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        first = endurance()
        second = endurance()
        assert first.signature() == second.signature()
        assert first.repair == second.repair
        assert first.time_to_repair == second.time_to_repair

    def test_different_seeds_diverge(self):
        assert endurance(seed=1).signature() != endurance(
            seed=2
        ).signature()

    def test_golden_signature(self):
        """Byte-exact pin of the golden run's determinism fingerprint."""
        signature = endurance().signature()
        blob = json.dumps(signature, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == GOLDEN_SIGNATURE_SHA, signature


class TestEnduranceConfig:
    def test_rejects_degenerate_runs(self):
        with pytest.raises(ConfigurationError):
            EnduranceConfig(n_blocks=1)
        with pytest.raises(ConfigurationError):
            EnduranceConfig(repair_cadence=0.0)
        with pytest.raises(ConfigurationError):
            EnduranceConfig(crash_count=-1)


class TestEnduranceTrace:
    def test_trace_carries_repair_story_and_counters(self):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        outcome = run_endurance(
            EnduranceConfig(**GOLDEN_CONFIG),
            limits=TEST_LIMITS,
            tracer=tracer,
        )
        assert outcome.tracer is tracer
        payload = to_chrome_trace(tracer, label="endurance test")
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        repair_names = {
            e["name"] for e in events if e.get("cat") == "repair"
        }
        assert "repair_sweep" in repair_names
        assert "under_replicated" in repair_names
        assert "re_replicated" in repair_names
        counters = [e for e in events if e["ph"] == "C"]
        assert counters  # per-cluster ledger-bytes series
        assert all("ledger bytes" in e["name"] for e in counters)
        assert all(
            isinstance(v, (int, float))
            for e in counters
            for v in e["args"].values()
        )

    def test_tracing_does_not_change_the_story(self):
        from repro.obs.tracer import Tracer

        bare = endurance()
        traced = run_endurance(
            EnduranceConfig(**GOLDEN_CONFIG),
            limits=TEST_LIMITS,
            tracer=Tracer(),
        )
        assert bare.signature() == traced.signature()


class TestEnduranceReport:
    def test_summary_renders_repair_stats(self):
        from repro.analysis.report import render_endurance_summary

        outcome = endurance()
        summary = render_endurance_summary(outcome)
        assert "cluster integrity: restored" in summary
        assert "## Anti-entropy repair" in summary
        assert "blocks re-replicated" in summary
        assert "time-to-repair p50/p95" in summary
        assert "## Fault interception" in summary
        assert "## Protocol recovery" in summary
        assert "replication floor met" in summary


class TestEnduranceCli:
    def test_cli_runs_reports_and_traces(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "endurance.md"
        trace = tmp_path / "endurance-trace.json"
        code = main(
            [
                "endurance",
                "--seed", "42",
                "--nodes", "15",
                "--groups", "3",
                "--blocks", "6",
                "--report", str(report),
                "--trace", str(trace),
            ]
        )
        assert code == 0  # integrity restored
        out = capsys.readouterr().out
        assert "cluster integrity: restored" in out
        assert "## Anti-entropy repair" in out
        assert "cluster integrity: restored" in report.read_text()

        from repro.obs.export import validate_chrome_trace

        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        assert any(e["ph"] == "C" for e in payload["traceEvents"])
