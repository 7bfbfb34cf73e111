"""Seeded chaos runs: the protocols must survive hostile weather.

``repro chaos`` is the endurance storm under :data:`CHAOS_PRESET` — a
16-node population, fault weather and one mid-run outage, no churn and
no partition window.  Every scenario here drives the full deployment
through the fault layer (:mod:`repro.sim.chaos`) and asserts the
paper's storage claim holds after the anti-entropy heal: **each cluster
again holds the complete ledger**.  Same-seed runs must also reproduce
identical fault and retry counters — that determinism is what makes a
chaos failure debuggable.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.chaos import (
    CHAOS_PRESET,
    EnduranceConfig,
    EnduranceOutcome,
    run_endurance,
)

from tests.conftest import TEST_LIMITS, chaos_config


def chaos(**kwargs) -> EnduranceOutcome:
    defaults = dict(n_blocks=4, queries=4)
    defaults.update(kwargs)
    return run_endurance(chaos_config(**defaults), limits=TEST_LIMITS)


class TestDropRateSweep:
    @pytest.mark.parametrize("drop_rate", [0.0, 0.1, 0.2, 0.3])
    def test_integrity_restored_under_drop_rate(self, drop_rate):
        outcome = chaos(
            seed=11,
            drop_rate=drop_rate,
            duplicate_rate=0.0,
            delay_rate=0.0,
            crash_count=0,
        )
        assert outcome.integrity_restored, outcome.cluster_integrity
        assert outcome.blocks_produced == 4
        assert outcome.queries_completed == outcome.queries_attempted == 4

    def test_clean_run_needs_no_recovery(self):
        outcome = chaos(
            seed=1,
            drop_rate=0.0,
            duplicate_rate=0.0,
            delay_rate=0.0,
            crash_count=0,
        )
        assert outcome.fault_stats["dropped"] == 0
        assert outcome.degraded == {}
        assert outcome.queries_degraded == 0
        assert outcome.integrity_restored

    def test_lossy_run_actually_retries(self):
        outcome = chaos(seed=11, drop_rate=0.3, crash_count=0)
        assert outcome.fault_stats["dropped"] > 0
        assert sum(outcome.retries.values()) > 0
        assert sum(outcome.timeouts.values()) > 0


class TestCrashAndRecover:
    def test_crashed_node_recovers_and_cluster_heals(self):
        outcome = chaos(seed=5, n_blocks=6, drop_rate=0.1, crash_count=1)
        assert len(outcome.outage_crashed) == 1
        assert outcome.fault_stats["crashes"] == 1
        assert outcome.fault_stats["recoveries"] == 1
        assert outcome.integrity_restored, outcome.cluster_integrity

    def test_stalled_node_recovers_too(self):
        outcome = chaos(
            seed=5, n_blocks=6, drop_rate=0.1, crash_count=0, stall_count=1
        )
        assert len(outcome.outage_stalled) == 1
        assert outcome.outage_crashed == []
        assert outcome.fault_stats["stalls"] == 1
        assert outcome.fault_stats["stall_dropped"] > 0
        assert outcome.integrity_restored


class TestPartitionAndHeal:
    def test_minority_partition_heals(self):
        outcome = chaos(
            seed=9, n_blocks=6, drop_rate=0.1, crash_count=0, partition=True
        )
        assert outcome.partitioned  # somebody really was cut off
        assert outcome.fault_stats["partition_dropped"] > 0
        assert outcome.integrity_restored, outcome.cluster_integrity

    def test_partition_with_crash_composes(self):
        outcome = chaos(
            seed=13, n_blocks=6, drop_rate=0.1, crash_count=1, partition=True
        )
        assert outcome.outage_crashed and outcome.partitioned
        assert set(outcome.outage_crashed).isdisjoint(outcome.partitioned)
        assert outcome.integrity_restored


class TestDeterminism:
    def test_acceptance_scenario_reproduces_exactly(self):
        """20% drop + one mid-run crash, twice."""
        config = dict(seed=42, n_blocks=6, drop_rate=0.2, crash_count=1)
        first = chaos(**config)
        second = chaos(**config)
        assert first.integrity_restored
        assert first.signature() == second.signature()
        # The signature covers the retry/timeout counters explicitly.
        assert first.retries == second.retries
        assert first.timeouts == second.timeouts
        assert first.degraded == second.degraded
        assert first.fault_stats == second.fault_stats

    def test_different_seeds_diverge(self):
        first = chaos(seed=1, drop_rate=0.2, crash_count=1)
        second = chaos(seed=2, drop_rate=0.2, crash_count=1)
        assert first.signature() != second.signature()


class TestChaosConfig:
    def test_rejects_degenerate_runs(self):
        with pytest.raises(ConfigurationError):
            chaos_config(n_blocks=1)
        with pytest.raises(ConfigurationError):
            chaos_config(crash_count=-1)
        with pytest.raises(ConfigurationError):
            chaos_config(stall_count=-1)
        with pytest.raises(ConfigurationError):
            chaos_config(queries=-1)
        # Rate validation is delegated to FaultConfig at run time.
        with pytest.raises(ConfigurationError):
            run_endurance(chaos_config(drop_rate=1.5), limits=TEST_LIMITS)


class TestChaosReport:
    def test_summary_renders_the_verdict(self):
        from repro.analysis.report import render_endurance_summary

        outcome = chaos(seed=3, drop_rate=0.2, crash_count=1)
        summary = render_endurance_summary(outcome)
        assert "**verdict: passed**" in summary
        assert "cluster integrity: restored" in summary
        finalized = outcome.deployment.total_finalized_blocks()
        assert f"4 produced, {finalized} finalized everywhere" in summary
        assert "## fault_stats" in summary
        assert "## Protocol recovery" in summary
        assert "block_body" in summary or "verify" in summary


class TestChaosCli:
    def test_chaos_is_the_endurance_parser_with_the_preset(self):
        from repro.cli import _storm_config, build_parser

        parser = build_parser()
        chaos_args = parser.parse_args(["chaos", "--seed", "7"])
        assert _storm_config(chaos_args) == EnduranceConfig(
            **CHAOS_PRESET, seed=7
        )
        endurance_args = parser.parse_args(["endurance", "--seed", "7"])
        assert _storm_config(endurance_args) == EnduranceConfig(seed=7)

    def test_seed_20_exits_zero(self, capsys):
        """The seed whose closing join once raised ``UnknownBlockError``."""
        from repro.cli import main

        assert main(["chaos", "--seed", "20"]) == 0
        assert "**verdict: passed**" in capsys.readouterr().out
