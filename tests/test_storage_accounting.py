"""Unit tests for storage accounting, replication health, and erasure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.chainstore import ChainStore
from repro.core.parity import parity_chunk, recover_body
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import StorageError
from repro.storage.accounting import (
    full_replication_total,
    ici_per_node,
    ici_total,
    rapidchain_per_node,
    rapidchain_total,
    report_network,
    report_node,
)
from repro.storage.placement import RendezvousPlacement
from repro.storage.replication import (
    analytic_block_survival,
    availability_under_failures,
    binomial_failure_probability,
    sample_failure_sets,
)


def header_at(height: int) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=sha256(f"p{height}".encode()),
        merkle_root=ZERO_HASH,
        timestamp=float(height),
    )


class TestReports:
    def test_node_report(self, genesis):
        store = ChainStore()
        store.add_body(genesis)
        report = report_node(7, store)
        assert report.node_id == 7
        assert report.total_bytes == store.stored_bytes
        assert report.body_count == 1

    def test_network_report_aggregates(self, genesis):
        stores = {}
        for node_id in range(3):
            store = ChainStore()
            store.add_header(genesis.header)
            if node_id == 0:
                store.add_body(genesis)
            stores[node_id] = store
        report = report_network(stores)
        assert report.node_count == 3
        assert report.total_bytes == sum(
            s.stored_bytes for s in stores.values()
        )
        assert report.max_node_bytes == stores[0].stored_bytes
        assert report.mean_node_bytes == report.total_bytes / 3
        assert report.stdev_node_bytes > 0


class TestClosedForms:
    def test_full_replication_scales_with_n(self):
        assert full_replication_total(100, 10) == 1000

    def test_rapidchain_independent_of_n(self):
        assert rapidchain_total(1000, 250, 1.0) == rapidchain_total(
            4000, 250, 1.0
        )

    def test_headline_25_percent(self):
        """The abstract's claim: ICI(16,1) = 25% of RapidChain(250)."""
        rc = rapidchain_total(1000, 250, 1.0)
        ici = ici_total(1000, 16, 1, 1.0)
        assert ici / rc == pytest.approx(0.25)

    def test_replication_scales_ici(self):
        assert ici_total(100, 10, 2, 1.0) == 2 * ici_total(100, 10, 1, 1.0)

    def test_per_node_forms(self):
        assert ici_per_node(10, 2, 100.0) == 20.0
        assert rapidchain_per_node(100, 10, 100.0) == 10.0

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            rapidchain_total(10, 20, 1.0)
        with pytest.raises(ValueError):
            ici_total(10, 0, 1, 1.0)
        with pytest.raises(ValueError):
            ici_total(10, 5, 6, 1.0)


class TestAvailability:
    def test_no_failures_all_available(self):
        headers = [header_at(h) for h in range(50)]
        report = availability_under_failures(
            headers, list(range(10)), 2, RendezvousPlacement(), set()
        )
        assert report.lost_blocks == report.at_risk_blocks == 0

    def test_failing_all_holders_loses_block(self):
        headers = [header_at(0)]
        policy = RendezvousPlacement()
        holders = set(policy.holders(headers[0], list(range(6)), 2))
        report = availability_under_failures(
            headers, list(range(6)), 2, policy, holders
        )
        assert report.lost_blocks == report.total_blocks == 1

    def test_at_risk_counting(self):
        headers = [header_at(0)]
        policy = RendezvousPlacement()
        holders = policy.holders(headers[0], list(range(6)), 2)
        report = availability_under_failures(
            headers, list(range(6)), 2, policy, {holders[0]}
        )
        assert report.at_risk_blocks == 1
        assert report.lost_blocks == 0

    def test_analytic_block_survival(self):
        assert analytic_block_survival(10, 1, 0.5) == 0.5
        assert analytic_block_survival(10, 2, 0.5) == 0.75
        assert analytic_block_survival(10, 3, 0.0) == 1.0

    def test_bad_probability_rejected(self):
        with pytest.raises(StorageError):
            analytic_block_survival(10, 2, 1.5)

    def test_binomial_failure_probability(self):
        # m=4, r=2, f=2: C(2,0)/C(4,2) = 1/6
        assert binomial_failure_probability(4, 2, 2) == pytest.approx(1 / 6)
        assert binomial_failure_probability(4, 2, 1) == 0.0
        assert binomial_failure_probability(4, 2, 4) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 12), st.integers(1, 3), st.integers(0, 3))
    def test_monte_carlo_matches_hypergeometric(self, m, r, extra):
        """Measured loss over random failure sets ≈ closed form."""
        r = min(r, m)
        f = min(r + extra, m)
        members = list(range(m))
        headers = [header_at(h) for h in range(60)]
        policy = RendezvousPlacement()
        expected = binomial_failure_probability(m, r, f)
        losses = 0
        trials = 0
        for failed in sample_failure_sets(members, f, 25, seed=1):
            report = availability_under_failures(
                headers, members, r, policy, failed
            )
            losses += report.lost_blocks
            trials += report.total_blocks
        measured = losses / trials
        assert abs(measured - expected) < 0.25


class TestRepairPlanning:
    def test_sample_failure_sets_bounds(self):
        sets = list(sample_failure_sets(range(5), 2, 4, seed=0))
        assert len(sets) == 4
        for failed in sets:
            assert len(failed) == 2
        with pytest.raises(StorageError):
            list(sample_failure_sets([0], 2, 1))


def survivors_without(bodies, lost):
    return {index: body for index, body in enumerate(bodies) if index != lost}


class TestErasure:
    """The RS(k, k + 1) parity pair a sealed parity group uses."""

    def test_encode_and_recover(self):
        bodies = [f"body-{i}".encode() * (i + 1) for i in range(4)]
        parity = parity_chunk(bodies)
        lengths = [len(body) for body in bodies]
        survivors = survivors_without(bodies, 2)
        assert recover_body(survivors, parity, lengths, 2) == bodies[2]

    def test_recover_each_position(self):
        bodies = [bytes([i * 7]) * (10 + i) for i in range(5)]
        parity = parity_chunk(bodies)
        lengths = [len(body) for body in bodies]
        for lost, body in enumerate(bodies):
            survivors = survivors_without(bodies, lost)
            assert recover_body(survivors, parity, lengths, lost) == body

    def test_two_losses_rejected(self):
        bodies = [b"x" * 8] * 3
        parity = parity_chunk(bodies)
        survivors = {2: bodies[2]}  # two missing
        with pytest.raises(StorageError, match="needs 3 of 4"):
            recover_body(survivors, parity, [8, 8, 8], 0)

    def test_wrong_length_survivor_rejected(self):
        bodies = [b"x" * 8] * 3
        parity = parity_chunk(bodies)
        survivors = {1: b"x" * 7, 2: b"x" * 8}
        with pytest.raises(StorageError, match="length"):
            recover_body(survivors, parity, [8, 8, 8], 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.binary(min_size=1, max_size=40), min_size=2, max_size=6
        ),
        st.data(),
    )
    def test_recovery_property(self, bodies, data):
        parity = parity_chunk(bodies)
        lengths = [len(body) for body in bodies]
        lost = data.draw(st.integers(0, len(bodies) - 1))
        survivors = survivors_without(bodies, lost)
        assert recover_body(survivors, parity, lengths, lost) == bodies[lost]
