"""Coverage for genesis construction, deployment metrics, and errors."""

from __future__ import annotations

import pytest

from repro.chain.genesis import (
    DEFAULT_FAUCET_VALUE,
    GENESIS_TIMESTAMP,
    make_genesis,
)
from repro.core.metrics import (
    BootstrapReport,
    DepartureReport,
    DeploymentMetrics,
)
from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyPair
from repro.errors import (
    ChainError,
    ConfigurationError,
    CryptoError,
    NetworkError,
    ReproError,
    StorageError,
    ValidationError,
)
from repro.protocols.query import QueryRecord


class TestGenesis:
    def test_deterministic(self):
        faucets = [KeyPair.from_seed(0).address]
        assert (
            make_genesis(faucets).block_hash
            == make_genesis(faucets).block_hash
        )

    def test_different_faucets_different_hash(self):
        a = make_genesis([KeyPair.from_seed(0).address])
        b = make_genesis([KeyPair.from_seed(1).address])
        assert a.block_hash != b.block_hash

    def test_supply_distribution(self):
        faucets = [KeyPair.from_seed(i).address for i in range(4)]
        genesis = make_genesis(faucets, faucet_value=1000)
        coinbase = genesis.transactions[0]
        assert coinbase.total_output_value == 4000
        assert {out.address for out in coinbase.outputs} == set(faucets)

    def test_header_shape(self):
        genesis = make_genesis([KeyPair.from_seed(0).address])
        assert genesis.header.is_genesis
        assert genesis.header.timestamp == GENESIS_TIMESTAMP
        assert genesis.verify_merkle_commitment()

    def test_no_faucets_rejected(self):
        with pytest.raises(ConfigurationError):
            make_genesis([])

    def test_default_value_positive(self):
        assert DEFAULT_FAUCET_VALUE > 0


class TestDeploymentMetrics:
    def test_finalize_latency_requires_all_clusters(self):
        metrics = DeploymentMetrics()
        block_hash = sha256(b"b")
        metrics.record_submit(block_hash, 1.0)
        metrics.record_cluster_final(block_hash, 0, 2.0)
        assert metrics.finalize_latency(block_hash, n_clusters=2) is None
        metrics.record_cluster_final(block_hash, 1, 3.5)
        assert metrics.finalize_latency(block_hash, 2) == pytest.approx(2.5)

    def test_unknown_block_latency_none(self):
        metrics = DeploymentMetrics()
        assert metrics.finalize_latency(sha256(b"x"), 1) is None

    def test_records_are_first_write_wins(self):
        metrics = DeploymentMetrics()
        block_hash = sha256(b"b")
        metrics.record_submit(block_hash, 1.0)
        metrics.record_submit(block_hash, 9.0)
        assert metrics.block_submitted_at[block_hash] == 1.0
        metrics.record_cluster_final(block_hash, 0, 2.0)
        metrics.record_cluster_final(block_hash, 0, 8.0)
        assert metrics.cluster_finalized_at[(block_hash, 0)] == 2.0

    def test_query_latency_aggregation(self):
        metrics = DeploymentMetrics()
        assert metrics.completed_query_latencies() == []
        metrics.queries.append(
            QueryRecord(1, 0, sha256(b"a"), started_at=0.0, completed_at=0.4)
        )
        metrics.queries.append(
            QueryRecord(2, 0, sha256(b"b"), started_at=0.0)  # pending
        )
        assert metrics.completed_query_latencies() == [0.4]


class TestReportObjects:
    def test_bootstrap_report_totals(self):
        report = BootstrapReport(
            node_id=1,
            cluster_id=0,
            started_at=1.0,
            header_bytes=84,
            body_bytes=1000,
            snapshot_bytes=50,
        )
        assert report.total_bytes == 1134
        assert not report.complete
        assert report.duration is None
        report.completed_at = 3.0
        assert report.duration == 2.0
        assert report.complete

    def test_departure_report_duration(self):
        report = DepartureReport(
            node_id=2, cluster_id=1, started_at=5.0, graceful=False
        )
        assert report.duration is None
        report.completed_at = 6.5
        assert report.duration == 1.5

    def test_query_record_latency(self):
        record = QueryRecord(1, 0, sha256(b"a"), started_at=2.0)
        assert record.latency is None
        record.completed_at = 2.25
        assert record.latency == pytest.approx(0.25)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [ChainError, CryptoError, NetworkError, StorageError,
         ConfigurationError, ValidationError],
    )
    def test_all_errors_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, ReproError)

    def test_validation_error_is_chain_error(self):
        assert issubclass(ValidationError, ChainError)

    def test_catchable_at_boundary(self):
        with pytest.raises(ReproError):
            raise ValidationError("boom")
