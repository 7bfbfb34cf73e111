"""Tests for the churn workload and endurance driver."""

from __future__ import annotations

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.sim.churn import (
    ChurnConfig,
    ChurnDriver,
    ChurnEvent,
    ChurnKind,
    make_schedule,
)
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def driver_for(n_nodes=24, n_clusters=3, replication=2, **churn_kwargs):
    deployment = ICIDeployment(
        n_nodes,
        config=ICIConfig(
            n_clusters=n_clusters,
            replication=replication,
            limits=TEST_LIMITS,
        ),
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    return deployment, ChurnDriver(
        deployment, runner, ChurnConfig(**churn_kwargs)
    )


class TestSchedule:
    def test_deterministic(self):
        config = ChurnConfig(join_rate=0.5, seed=3)
        assert make_schedule(config, 20) == make_schedule(config, 20)

    def test_rates_scale_event_counts(self):
        sparse = make_schedule(ChurnConfig(join_rate=0.05, seed=1), 200)
        dense = make_schedule(ChurnConfig(join_rate=0.8, seed=1), 200)
        assert len(dense) > len(sparse)

    def test_zero_rates_empty(self):
        config = ChurnConfig(join_rate=0, leave_rate=0, crash_rate=0)
        assert make_schedule(config, 50) == []

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnConfig(join_rate=-0.1)

    def test_events_ordered_within_run(self):
        events = make_schedule(
            ChurnConfig(join_rate=0.5, crash_rate=0.5, seed=2), 30
        )
        blocks = [event.after_block for event in events]
        assert blocks == sorted(blocks)
        assert all(1 <= b <= 30 for b in blocks)


class TestDriver:
    def test_endurance_preserves_integrity(self):
        deployment, driver = driver_for(
            join_rate=0.4, leave_rate=0.2, crash_rate=0.2, seed=5
        )
        outcome = driver.run(12, txs_per_block=3)
        assert outcome.blocks_produced == 12
        assert outcome.integrity_violations == 0
        assert outcome.lost_blocks == 0
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)

    def test_population_tracks_events(self):
        deployment, driver = driver_for(
            join_rate=1.0, leave_rate=0.0, crash_rate=0.0, seed=1
        )
        outcome = driver.run(5, txs_per_block=2)
        assert outcome.joins == 5
        assert deployment.node_count == 29
        assert outcome.population_history[-1] == 29

    def test_departures_shrink_population(self):
        deployment, driver = driver_for(
            join_rate=0.0, leave_rate=1.0, crash_rate=0.0, seed=1
        )
        outcome = driver.run(4, txs_per_block=2)
        assert outcome.leaves == 4
        assert deployment.node_count == 20

    def test_crashes_repair_with_r2(self):
        deployment, driver = driver_for(
            join_rate=0.0, leave_rate=0.0, crash_rate=1.0, seed=1
        )
        outcome = driver.run(4, txs_per_block=2)
        assert outcome.crashes == 4
        assert outcome.lost_blocks == 0

    def test_events_skipped_when_clusters_too_small(self):
        # Clusters of 3 with r=2: minimum viable is r+1=3 → no departures.
        deployment, driver = driver_for(
            n_nodes=9,
            n_clusters=3,
            replication=2,
            join_rate=0.0,
            leave_rate=1.0,
            crash_rate=0.0,
            seed=1,
        )
        outcome = driver.run(3, txs_per_block=2)
        assert outcome.leaves == 0
        assert outcome.skipped_events == 3

    def test_joined_nodes_can_propose(self):
        deployment, driver = driver_for(
            join_rate=1.0, leave_rate=0.0, crash_rate=0.0, seed=1
        )
        driver.run(3, txs_per_block=2)
        schedule = driver.runner.schedule
        assert any(schedule.proposer_at(h) >= 24 for h in range(500))

    def test_costs_accumulate(self):
        deployment, driver = driver_for(
            join_rate=0.6, leave_rate=0.3, crash_rate=0.0, seed=9
        )
        outcome = driver.run(10, txs_per_block=3)
        if outcome.joins:
            assert outcome.bootstrap_bytes > 0
        if outcome.leaves:
            assert outcome.repair_bytes >= 0


class TestEventModel:
    def test_event_fields(self):
        event = ChurnEvent(after_block=3, kind=ChurnKind.CRASH)
        assert event.after_block == 3
        assert event.kind is ChurnKind.CRASH
