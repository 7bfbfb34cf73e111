"""Tests for the paper-scale storage-layout simulation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.storage.accounting import ici_total, rapidchain_total
from repro.storage.layout import (
    balanced_clusters,
    ici_layout,
    rapidchain_layout,
    synthetic_chain,
)
from repro.storage.placement import RoundRobinPlacement


class TestSyntheticChain:
    def test_deterministic(self):
        assert synthetic_chain(10, seed=2) == synthetic_chain(10, seed=2)

    def test_chained_hashes(self):
        blocks = synthetic_chain(5, seed=1)
        for parent, child in zip(blocks, blocks[1:]):
            assert child.header.prev_hash == parent.header.block_hash

    def test_sizes_within_jitter(self):
        blocks = synthetic_chain(
            50, mean_body_bytes=1000, jitter=0.2, seed=3
        )
        for block in blocks:
            assert 800 <= block.body_bytes <= 1200

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            synthetic_chain(-1)
        with pytest.raises(ConfigurationError):
            synthetic_chain(2, jitter=1.5)


class TestLayouts:
    def test_ici_layout_matches_closed_form(self):
        blocks = synthetic_chain(200, mean_body_bytes=10_000, seed=4)
        ledger = sum(b.body_bytes for b in blocks)
        clusters = balanced_clusters(60, 6, seed=4)  # cluster size 10
        report = ici_layout(clusters, blocks, replication=2)
        total_bodies = sum(r.body_bytes for r in report.per_node)
        assert total_bodies == pytest.approx(
            ici_total(60, 10, 2, ledger), rel=1e-9
        )

    def test_rapidchain_layout_matches_closed_form_in_expectation(self):
        blocks = synthetic_chain(400, mean_body_bytes=10_000, seed=5)
        ledger = sum(b.body_bytes for b in blocks)
        committees = balanced_clusters(60, 6, seed=5)
        report = rapidchain_layout(committees, blocks)
        total_bodies = sum(r.body_bytes for r in report.per_node)
        # Shard assignment is hash-random: expect within a few percent.
        assert total_bodies == pytest.approx(
            rapidchain_total(60, 10, ledger), rel=0.05
        )

    def test_every_cluster_covers_ledger(self):
        """Intra-cluster integrity at layout level: summed counts match."""
        blocks = synthetic_chain(100, seed=7)
        clusters = balanced_clusters(40, 4, seed=7)
        report = ici_layout(clusters, blocks, replication=1)
        count_by_node = {
            r.node_id: r.body_count for r in report.per_node
        }
        for view in clusters.views():
            assert (
                sum(count_by_node[m] for m in view.members) == 100
            )

    def test_round_robin_layout_perfectly_balanced(self):
        blocks = synthetic_chain(100, jitter=0.0, seed=8)
        clusters = balanced_clusters(20, 2, seed=8)  # clusters of 10
        report = ici_layout(
            clusters, blocks, replication=1, policy=RoundRobinPlacement()
        )
        counts = {r.body_count for r in report.per_node}
        assert counts == {10}

    def test_paper_scale_headline(self):
        """N=1000, committees of 250 vs clusters of 16: ≈25%."""
        blocks = synthetic_chain(300, mean_body_bytes=100_000, seed=9)
        ici_report = ici_layout(
            balanced_clusters(1000, 62, seed=9), blocks, replication=1
        )
        rapid_report = rapidchain_layout(
            balanced_clusters(1000, 4, seed=9), blocks
        )
        ratio = sum(r.body_bytes for r in ici_report.per_node) / sum(
            r.body_bytes for r in rapid_report.per_node
        )
        assert ratio == pytest.approx(0.25, abs=0.02)
