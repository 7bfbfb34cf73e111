"""Tests for the exact traffic model and workload fees.

``TestModelEqualsSimulator`` is the model's equality battery: every
message kind's count and bytes after a clean ``produce_blocks`` run equal
:mod:`repro.storage.communication`'s tables, summed over the blocks.  It
rides the workflow's fuzz smoke step (``HYPOTHESIS_PROFILE=ci``) at a
higher example count.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.conftest import measured_traffic, modeled_traffic
from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.chain.block import HEADER_SIZE
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError, ValidationError
from repro.net.message import ENVELOPE_OVERHEAD, MessageKind
from repro.net.topology import clustered_topology, random_regular
from repro.sim.runner import ScenarioRunner
from repro.storage.communication import (
    edge_count,
    full_replication_traffic,
    ici_advantage_factor,
    ici_traffic,
)
from tests.conftest import TEST_LIMITS

#: The fuzz smoke step of CI (``HYPOTHESIS_PROFILE=ci``) draws more runs.
MODEL_SETTINGS = settings(
    derandomize=True,
    max_examples=300 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 100,
    deadline=None,
)
HEADER_KINDS = (
    MessageKind.BLOCK_ANNOUNCE,
    MessageKind.HEADER_REQUEST,
    MessageKind.BLOCK_HEADER,
)


def chunked(n_nodes: int, cluster_size: int) -> list[range]:
    return [
        range(start, min(start + cluster_size, n_nodes))
        for start in range(0, n_nodes, cluster_size)
    ]


def ici_block(n_nodes: int, cluster_size: int, config: ICIConfig, body: int):
    """One block's ICI table on the chunked overlay, proposer not a holder."""
    clusters = chunked(n_nodes, cluster_size)
    return ici_traffic(
        edge_count(clustered_topology(clusters)),
        [len(members) for members in clusters],
        config,
        HEADER_SIZE + body,
        False,
    )


def wire_bytes(table) -> int:
    return sum(size for _, size in table.values())


def assert_model_equals_run(deployment, n_blocks: int, txs: int) -> None:
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=txs)
    ledger = deployment.network.traffic
    model = modeled_traffic(deployment, runner, report)
    assert measured_traffic(ledger) == model
    assert ledger.total_messages == sum(count for count, _ in model.values())
    assert ledger.total_bytes == wire_bytes(model)


class TestClosedForms:
    def test_header_flood_scales_with_n(self):
        config = ICIConfig(replication=1)
        small = ici_block(50, 8, config, 1_000)
        large = ici_block(200, 8, config, 1_000)
        for kind in HEADER_KINDS:
            assert large[kind] > small[kind]
        assert large[MessageKind.BLOCK_HEADER] == (
            199,
            199 * (HEADER_SIZE + ENVELOPE_OVERHEAD),
        )

    def test_full_replication_dominates(self):
        body = 100_000
        full = full_replication_traffic(
            edge_count(random_regular(range(400))), 400, HEADER_SIZE + body
        )
        ici = ici_block(400, 16, ICIConfig(replication=1), body)
        assert wire_bytes(ici) < wire_bytes(full)

    def test_ici_advantage_grows_with_body(self):
        config = ICIConfig(replication=1)
        small = ici_advantage_factor(1000, 16, config, 10_000)
        large = ici_advantage_factor(1000, 16, config, 1_000_000)
        assert large > small

    def test_advantage_approaches_m_over_r(self):
        factor = ici_advantage_factor(
            1000, 16, ICIConfig(replication=1), 100_000_000
        )
        assert factor == pytest.approx(16, rel=0.05)
        factor_r2 = ici_advantage_factor(
            1000, 16, ICIConfig(replication=2), 100_000_000
        )
        assert factor_r2 == pytest.approx(8, rel=0.05)

    def test_vote_aggregation_cheaper_at_scale(self):
        aggregated = ici_block(256, 64, ICIConfig(aggregate_votes=True), 1_000)
        broadcast = ici_block(256, 64, ICIConfig(aggregate_votes=False), 1_000)
        assert wire_bytes(aggregated) < wire_bytes(broadcast)
        assert MessageKind.VERIFY_RESULT not in broadcast
        assert broadcast[MessageKind.VERIFY_COMMIT][0] == 4 * 64 * 63

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigurationError):
            ici_traffic(0, [], ICIConfig(), 100, False)
        with pytest.raises(ConfigurationError):
            ici_traffic(10, [5, 5], ICIConfig(replication=6), 100, False)

    def test_closed_form_tracks_simulator(self):
        """Measured ICI dissemination equals the exact model."""
        deployment = ICIDeployment(
            24,
            config=ICIConfig(n_clusters=3, replication=1, limits=TEST_LIMITS),
        )
        assert_model_equals_run(deployment, 6, 4)


class TestModelEqualsSimulator:
    @MODEL_SETTINGS
    @given(
        n_clusters=st.integers(1, 8),
        cluster_size=st.integers(1, 8),
        data=st.data(),
        n_blocks=st.integers(1, 3),
        aggregate_votes=st.booleans(),
        seed=st.integers(0, 1_000),
    )
    def test_ici(
        self, n_clusters, cluster_size, data, n_blocks, aggregate_votes, seed
    ):
        # Uneven clusters: up to C − 1 of them get one member more.
        extra = data.draw(st.integers(0, n_clusters - 1), label="extra")
        replication = data.draw(
            st.integers(1, min(3, cluster_size)), label="replication"
        )
        config = ICIConfig(
            n_clusters=n_clusters,
            replication=replication,
            aggregate_votes=aggregate_votes,
            limits=TEST_LIMITS,
            seed=seed,
        )
        deployment = ICIDeployment(
            n_clusters * cluster_size + extra, config=config
        )
        assert_model_equals_run(deployment, n_blocks, 3)

    @MODEL_SETTINGS
    @given(
        n_nodes=st.integers(1, 48),
        n_blocks=st.integers(1, 3),
        seed=st.integers(0, 1_000),
    )
    def test_full_replication(self, n_nodes, n_blocks, seed):
        deployment = FullReplicationDeployment(
            n_nodes, limits=TEST_LIMITS, seed=seed
        )
        assert_model_equals_run(deployment, n_blocks, 3)

    @MODEL_SETTINGS
    @given(
        n_nodes=st.integers(1, 48),
        data=st.data(),
        n_blocks=st.integers(1, 3),
        seed=st.integers(0, 1_000),
    )
    def test_rapidchain(self, n_nodes, data, n_blocks, seed):
        n_committees = data.draw(st.integers(1, n_nodes), label="n_committees")
        deployment = RapidChainDeployment(
            n_nodes, n_committees, limits=TEST_LIMITS, seed=seed
        )
        assert_model_equals_run(deployment, n_blocks, 3)


class TestWorkloadFees:
    def test_transfers_leave_fees(self, genesis):
        from repro.sim.workload import TransactionWorkload, WorkloadConfig

        workload = TransactionWorkload(
            WorkloadConfig(fee_per_transfer=250, seed=1)
        )
        workload.on_block_confirmed(genesis)
        tx = workload.next_transfer()
        assert tx is not None
        # Fee = inputs − outputs; inputs are genesis faucet outputs.
        total_in = genesis.transactions[0].outputs[0].value
        assert total_in - tx.total_output_value == 250

    def test_negative_fee_rejected(self):
        from repro.sim.workload import WorkloadConfig

        with pytest.raises(ConfigurationError):
            WorkloadConfig(fee_per_transfer=-1)

    def test_transfer_fee_validation(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        tx = make_signed_transfer(
            alice,
            [(OutPoint(txid=sha256(b"p"), index=0), 100)],
            b"\x09" * 20,
            amount=40,
            fee=10,
        )
        assert tx.total_output_value == 90  # 40 paid + 50 change

    def test_insufficient_for_fee_rejected(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        with pytest.raises(ValidationError, match="insufficient"):
            make_signed_transfer(
                alice,
                [(OutPoint(txid=sha256(b"p"), index=0), 100)],
                b"\x09" * 20,
                amount=95,
                fee=10,
            )

    def test_negative_fee_in_transfer_rejected(self, alice):
        from repro.chain.transaction import OutPoint, make_signed_transfer
        from repro.crypto.hashing import sha256

        with pytest.raises(ValidationError, match="fee"):
            make_signed_transfer(
                alice,
                [(OutPoint(txid=sha256(b"p"), index=0), 100)],
                b"\x09" * 20,
                amount=10,
                fee=-1,
            )

    def test_proposer_claims_fees_end_to_end(self):
        """Coinbase = subsidy + collected fees, validated by every node."""
        from repro.core.config import ICIConfig
        from repro.core.icistrategy import ICIDeployment
        from repro.sim.runner import ScenarioRunner
        from repro.sim.workload import TransactionWorkload, WorkloadConfig
        from tests.conftest import TEST_LIMITS

        deployment = ICIDeployment(
            12,
            config=ICIConfig(n_clusters=3, limits=TEST_LIMITS),
        )
        workload = TransactionWorkload(
            WorkloadConfig(fee_per_transfer=100, seed=2)
        )
        runner = ScenarioRunner(
            deployment, workload=workload, limits=TEST_LIMITS
        )
        report = runner.produce_blocks(4, txs_per_block=3)
        assert not deployment.metrics.blocks_rejected
        for block in report.blocks:
            fees = 100 * (len(block.transactions) - 1)
            assert (
                block.transactions[0].total_output_value
                == TEST_LIMITS.block_reward + fees
            )
