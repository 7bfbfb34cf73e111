"""Determinism: identical seeds must reproduce identical simulations."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.net.message import MessageKind, sized_message
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload
from tests.conftest import TEST_LIMITS


def run_once(seed: int):
    deployment = ICIDeployment(
        16,
        config=ICIConfig(
            n_clusters=4, replication=2, limits=TEST_LIMITS, seed=seed
        ),
    )
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=seed)
    report = runner.produce_blocks(5, txs_per_block=4)
    join = deployment.join_new_node()
    deployment.run()
    return deployment, report, join


class TestBitReproducibility:
    def test_block_stream_identical(self):
        _, report_a, _ = run_once(7)
        _, report_b, _ = run_once(7)
        assert report_a.block_hashes == report_b.block_hashes

    def test_traffic_identical(self):
        deployment_a, *_ = run_once(7)
        deployment_b, *_ = run_once(7)
        a, b = deployment_a.network.traffic, deployment_b.network.traffic
        assert a.total_messages == b.total_messages
        assert a.total_bytes == b.total_bytes
        assert dict(a.bytes_by_kind) == dict(b.bytes_by_kind)

    def test_virtual_time_identical(self):
        deployment_a, *_ = run_once(7)
        deployment_b, *_ = run_once(7)
        assert deployment_a.network.now == deployment_b.network.now
        assert (
            deployment_a.metrics.cluster_finalized_at
            == deployment_b.metrics.cluster_finalized_at
        )

    def test_bootstrap_identical(self):
        _, _, join_a = run_once(7)
        _, _, join_b = run_once(7)
        assert join_a.total_bytes == join_b.total_bytes
        assert join_a.duration == join_b.duration
        assert join_a.cluster_id == join_b.cluster_id

    def test_different_seeds_differ(self):
        _, report_a, _ = run_once(7)
        _, report_b, _ = run_once(8)
        assert report_a.block_hashes != report_b.block_hashes

    def test_storage_layout_identical(self):
        deployment_a, *_ = run_once(7)
        deployment_b, *_ = run_once(7)
        layout_a = {
            node_id: node.store.stored_bytes
            for node_id, node in deployment_a.nodes.items()
        }
        layout_b = {
            node_id: node.store.stored_bytes
            for node_id, node in deployment_b.nodes.items()
        }
        assert layout_a == layout_b


def churn_sequence_sha(placement: str) -> str:
    """40 join → leave → join → crash-repair ops on a 20-block ledger.

    The unit-scale twin of perfbench's ``membership_churn``: every number
    a membership change produces (per-op virtual duration, bytes and body
    counts, the final per-node storage and the traffic totals) folded
    into one digest.
    """
    deployment = ICIDeployment(
        24,
        config=ICIConfig(
            n_clusters=3,
            replication=2,
            limits=TEST_LIMITS,
            placement=placement,
        ),
    )
    ScenarioRunner(deployment, limits=TEST_LIMITS, seed=5).produce_blocks(
        20, txs_per_block=4
    )
    rng = random.Random(5)
    ops = []
    for index in range(40):
        if index % 2 == 0:
            report = deployment.join_new_node()
            deployment.run()
            ops.append(
                (report.duration, report.total_bytes, report.bodies_fetched)
            )
            continue
        largest = max(
            deployment.clusters.views(), key=lambda view: len(view.members)
        )
        victim = rng.choice(largest.members)
        if index % 4 == 1:
            report = deployment.leave_node(victim)
        else:
            report = deployment.repair_after_crash(victim)
        deployment.run()
        ops.append(
            (report.duration, report.bytes_moved, report.blocks_transferred)
        )
    assert all(duration is not None for duration, _, _ in ops)
    traffic = deployment.network.traffic
    record = (
        ops,
        deployment.storage_report().per_node,
        traffic.total_messages,
        traffic.total_bytes,
        sorted((kind.name, n) for kind, n in traffic.bytes_by_kind.items()),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


class TestChurnSequencePin:
    """Membership changes are simulated-number-identical to PR 13.

    The shas were taken at the parent of the O(delta) membership PR
    (per-header ``holders(old)/holders(new)`` loops, flat placement
    memo); ``modulo`` drives the generic ``reassignments`` path.  They
    were retaken once when join and departure batches moved from
    ``SYNC_REQUEST``/``SYNC_BODIES`` to the body-transfer service's
    ``BLOCK_REQUEST``/``BLOCK_BODY``: only the per-kind byte rows fold,
    every other folded number is unchanged.
    """

    @pytest.mark.parametrize(
        "placement, expected",
        [
            ("hash", "a10c24a7127528ce65d042736cdb1fff609bd2bf2135414f2858c8478e064621"),
            ("modulo", "48f209219997d07be3051519aff74b37d1cd40e0347998190380d4e43ddbdec9"),
        ],
    )
    def test_churn_sequence_unchanged(self, placement, expected):
        assert churn_sequence_sha(placement) == expected


class _DeliveryLog:
    """Router observer keeping the first ``limit`` deliveries in order."""

    def __init__(self, clock, limit: int = 5_000) -> None:
        self._clock = clock
        self._limit = limit
        # Message ids come from one process-wide counter: pin them
        # relative to a message built now, so test order cannot matter.
        self._base = sized_message(MessageKind.CONTROL, 0, 0, None, 0).message_id
        self.rows: list[tuple] = []

    def on_send(self, message) -> None:
        pass

    def on_deliver(self, node, message) -> None:
        if len(self.rows) < self._limit:
            self.rows.append(
                (
                    self._clock.now,
                    message.kind.name,
                    message.sender,
                    message.recipient,
                    message.size_bytes,
                    message.message_id - self._base,
                )
            )

    def on_finalize(self, event) -> None:
        pass

    def sha(self) -> str:
        return hashlib.sha256(repr(self.rows).encode()).hexdigest()


def delivery_order_sha(read_round: bool) -> tuple[int, str]:
    """First 5,000 deliveries of a 24-node / 3-cluster / 6-block run.

    With ``read_round`` the deployment runs DHT + adaptive replication
    and a 120-read Zipf round with two anti-entropy cadences follows the
    writes, so lookups, heat and repair traffic are in the stream too.
    """
    deployment = ICIDeployment(
        24,
        config=ICIConfig(n_clusters=3, replication=2, limits=TEST_LIMITS),
    )
    log = _DeliveryLog(deployment.network.clock)
    deployment.router.add_observer(log)
    if read_round:
        deployment.enable_adaptive_replication()
        deployment.enable_dht()
    report = ScenarioRunner(
        deployment, limits=TEST_LIMITS, seed=3
    ).produce_blocks(6, txs_per_block=4)
    if read_round:
        reads = ZipfReadWorkload(ReadWorkloadConfig(seed=3))
        for requester, block_hash in reads.reads(
            report.block_hashes, sorted(deployment.nodes), 120
        ):
            deployment.retrieve_block(requester, block_hash)
        deployment.run()
        deployment.repair.start(cadence=5.0)
        deployment.run_for(10.0)
        deployment.repair.stop()
        deployment.run()
    return len(log.rows), log.sha()


class TestDeliveryOrderPin:
    """``(now, kind, sender, recipient, size, message id)`` per delivery.

    The shas were taken at the parent of the lean-message-path PR
    (frozen-dataclass ``Message``, handle-per-event scheduling,
    ``getattr``-dispatched observers): event order, sizes and the id
    sequence are exactly what that code produced.  The read round's was
    retaken when reads and repair sweeps with the overlay on stopped
    leaving the requester's cluster (3008 deliveries before, 3012 after).
    """

    @pytest.mark.parametrize(
        "read_round, expected",
        [
            (False, (1894, "8bbc5902c4050c3a30552d1e6e57aeeed8e6ce7cab7f1008193016a106d1e236")),
            (True, (3012, "5342cc9a57b4c61824d175502a05d320207cf5302bc00c53c2ba1faccfacf7d0")),
        ],
    )
    def test_delivery_order_unchanged(self, read_round, expected):
        assert delivery_order_sha(read_round) == expected
