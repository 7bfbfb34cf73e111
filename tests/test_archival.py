"""Archival coding: RS chunking of cold blocks, thaw, repair, audits.

Covers the whole archival loop (:mod:`repro.storage.coded`): the
cold-block transition from replicas to 3+1 Reed–Solomon chunk sets on
distinct members, lazy reconstruction through the query failover tail,
chunk re-homing when holders depart, thaw on re-warm, the acceptance
comparison (:mod:`repro.sim.tiered_compare`) behind the ">= 10% stored bytes
at full read availability" claim, and the endurance audit's coded
floor.  Every scenario is seeded; the key ones are pinned.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.chain.block import serialize_body
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.sim.runner import ScenarioRunner
from repro.storage.coded import ArchivalConfig
from repro.storage.heat import COLD, HeatConfig
from tests.conftest import TEST_LIMITS
from tests.test_adaptive import ADAPTIVE_GOLDEN_SHA

#: Archival flavour of the endurance golden scenario (same seed and
#: population as tests/test_endurance.py's GOLDEN_CONFIG).
ARCHIVAL_GOLDEN_CONFIG = dict(
    seed=42, n_nodes=15, n_clusters=3, n_blocks=6, queries=4, archival=True
)

#: sha256 of the canonical-JSON signature of the archival golden run.
#: Changing it means the archive/thaw/repair interplay changed: confirm
#: intent (trace-diff two runs), then update.
ARCHIVAL_GOLDEN_SHA = (
    "9ac681795fed7d28774d20be9a04cea715fe94caef523693133d40c227bb3a45"
)

#: Small-population tiering knobs (same as tests/test_adaptive.py):
#: with 6 blocks the default quantiles would allot zero hot slots.
SMALL_HEAT = HeatConfig(hot_quantile=0.8, cold_quantile=0.5)


def build_archival(
    n_nodes: int = 6,
    n_clusters: int = 1,
    replication: int = 2,
    n_blocks: int = 6,
    code: ArchivalConfig | None = None,
):
    """One-cluster archival deployment with ``n_blocks`` produced."""
    config = ICIConfig(
        n_clusters=n_clusters,
        replication=replication,
        limits=TEST_LIMITS,
    )
    deployment = ICIDeployment(n_nodes, config=config)
    deployment.enable_adaptive_replication(SMALL_HEAT)
    tier = deployment.enable_archival_tier(code)
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=7)
    report = runner.produce_blocks(n_blocks, txs_per_block=2)
    return deployment, tier, report


def heat_one_block(deployment, block_hash, times: int = 12) -> None:
    """Concentrate accesses so the quantile refresh finds a cold tail."""
    for _ in range(times):
        deployment.heat.note_access(block_hash)


def sweep(deployment, seconds: float = 30.0, cadence: float = 5.0):
    """Run anti-entropy sweeps for a virtual window, then drain.

    Thirty seconds: enough for the refresh → archive → repair cycle to
    run several times even when a degraded digest burns a retry tail.
    """
    deployment.repair.start(cadence=cadence)
    deployment.network.clock.run_for(seconds)
    deployment.repair.stop()
    deployment.run()


def archived_hashes(deployment, tier, report):
    """The produced blocks the (single) cluster holds in coded form."""
    return [
        block_hash
        for block_hash in report.block_hashes
        if tier.is_archived(0, block_hash)
    ]


class TestArchivalConfig:
    def test_defaults_validate(self):
        config = ArchivalConfig()
        assert config.total_chunks == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(data_chunks=0),
            dict(parity_chunks=0),
            dict(parity_chunks=-1),
            dict(data_chunks=200, parity_chunks=100),
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ConfigurationError):
            ArchivalConfig(**kwargs)


class TestArchivalTier:
    def test_cold_blocks_archive_onto_distinct_live_members(self):
        deployment, tier, report = build_archival()
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        archived = archived_hashes(deployment, tier, report)
        assert archived, "no cold block transitioned to coded form"
        assert tier.stats.blocks_archived > 0
        for block_hash in archived:
            assert tier.planner.tier_of(block_hash) == COLD
            # Every full replica dropped from the cluster...
            assert not any(
                node.store.has_body(block_hash)
                for node in deployment.nodes.values()
            )
            # ...and n chunks sit on n distinct live members.
            holders = tier.holders_of(0, block_hash)
            assert len(holders) == tier.config.total_chunks
            assert len(set(holders.values())) == len(holders)
            assert all(
                deployment.network.is_online(holder)
                for holder in holders.values()
            )
            assert tier.coded_floor_ok(0, block_hash)
            assert tier.can_reconstruct(0, block_hash)
        assert tier.total_chunk_bytes > 0

    def test_reconstruct_is_byte_identical(self):
        deployment, tier, report = build_archival()
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        block_hash = archived_hashes(deployment, tier, report)[0]
        block = tier.reconstruct(0, block_hash)
        assert block is not None
        assert serialize_body(block) == serialize_body(
            deployment.ledger.store.body(block_hash)
        )
        assert tier.stats.reconstructions == 1
        # The lazy decode does not re-adopt replicas: cold stays coded.
        assert tier.is_archived(0, block_hash)
        assert not any(
            node.store.has_body(block_hash)
            for node in deployment.nodes.values()
        )

    def test_query_failover_tail_decodes_archived_blocks(self):
        deployment, tier, report = build_archival()
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        block_hash = archived_hashes(deployment, tier, report)[0]
        requester = sorted(deployment.nodes)[0]
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        assert record.completed_at is not None
        assert not record.degraded
        assert tier.stats.reconstructions > 0
        assert tier.stats.failed_reconstructions == 0

    def test_rewarmed_blocks_thaw_back_to_replicas(self):
        deployment, tier, report = build_archival()
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        block_hash = archived_hashes(deployment, tier, report)[0]
        # The archived block becomes the hottest thing on the chain.
        heat_one_block(deployment, block_hash, times=50)
        sweep(deployment)
        assert not tier.is_archived(0, block_hash)
        assert tier.stats.blocks_thawed > 0
        holders = sum(
            1
            for node in deployment.nodes.values()
            if node.store.has_body(block_hash)
        )
        assert holders >= 1

    def test_crashed_chunk_holder_is_re_homed(self):
        deployment, tier, report = build_archival()
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        block_hash = archived_hashes(deployment, tier, report)[0]
        victim = sorted(tier.holders_of(0, block_hash).values())[0]
        deployment.network.set_online(victim, False)
        sweep(deployment)
        holders = tier.holders_of(0, block_hash)
        assert victim not in holders.values()
        assert len(set(holders.values())) == len(holders)
        assert tier.stats.chunks_repaired > 0
        assert tier.coded_floor_ok(0, block_hash)
        assert tier.chunk_bytes_of(victim) == 0

    def test_small_clusters_keep_replicas(self):
        # A 3-member cluster cannot give 3+1 chunks distinct holders:
        # the tier must leave the replica floor untouched.
        deployment, tier, report = build_archival(n_nodes=3)
        heat_one_block(deployment, report.block_hashes[-1])
        sweep(deployment)
        assert tier.archived_blocks == 0
        assert tier.stats.blocks_archived == 0
        for block_hash in report.block_hashes:
            assert any(
                node.store.has_body(block_hash)
                for node in deployment.nodes.values()
            )

    def test_enable_is_idempotent_and_implies_adaptive(self):
        deployment, tier, _ = build_archival()
        assert deployment.enable_archival_tier() is tier
        assert deployment.replication_planner is not None
        assert deployment.archival is tier


#: sha256 of the canonical-JSON signature of the default E19 run.
E19_GOLDEN_SHA = (
    "8152a3adf64cc3a4181790dcd7dd4a4f2defb64b4927c2b1ed5ee8d1ddae71ca"
)


class TestArchivalCompare:
    def test_acceptance_savings_and_availability(self):
        """The PR's acceptance gate, verbatim: under Zipf reads at seed
        42 and r=3 the archival deployment stores >= 10% fewer total
        bytes (replicas + chunks) than adaptive-only, every query still
        completes, and no audit round finds a coverage hole or a block
        below its coded/shed floor."""
        from repro.sim.tiered_compare import E19, run_tiered_compare

        outcome = run_tiered_compare(replace(E19, seed=42))
        adaptive, coded = outcome.baseline, outcome.treatment
        assert coded.bytes < adaptive.bytes
        assert outcome.savings_fraction >= 0.10, outcome.signature()
        assert outcome.reads_ok
        assert outcome.converged_safely
        assert outcome.archival_stats["blocks_archived"] > 0
        assert outcome.archival_stats["reconstructions"] > 0
        assert outcome.archival_stats["failed_reconstructions"] == 0
        assert adaptive.queries_completed == outcome.config.reads
        assert coded.queries_completed == outcome.config.reads

    def test_e19_golden_signature(self):
        """Pinned at the commit before the E18/E19 harnesses merged
        (see the E18 pin in tests/test_adaptive.py)."""
        from repro.sim.tiered_compare import E19, run_tiered_compare

        signature = run_tiered_compare(E19).signature()
        blob = json.dumps(signature, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == E19_GOLDEN_SHA, signature

    def test_compare_is_deterministic(self):
        from repro.sim.tiered_compare import E19, run_tiered_compare

        config = replace(E19, n_blocks=8, reads=60, rounds=3)
        assert (
            run_tiered_compare(config).signature()
            == run_tiered_compare(config).signature()
        )

    def test_rejects_degenerate_configs(self):
        from repro.sim.tiered_compare import E19

        with pytest.raises(ConfigurationError):
            replace(E19, n_blocks=1)
        with pytest.raises(ConfigurationError):
            replace(E19, rounds=0)
        with pytest.raises(ConfigurationError):
            replace(E19, repair_cadence=0.0)


class TestArchivalEndurance:
    def endurance(self, **kwargs):
        from repro.sim.chaos import EnduranceConfig, run_endurance

        config = dict(ARCHIVAL_GOLDEN_CONFIG)
        config.update(kwargs)
        return run_endurance(
            EnduranceConfig(**config), limits=TEST_LIMITS
        )

    def test_survives_churn_with_the_coded_floor_met(self):
        outcome = self.endurance()
        assert outcome.integrity_restored
        assert outcome.replica_floor_met  # coded-aware audit
        assert outcome.archival["blocks_archived"] > 0
        assert outcome.archival["chunks_repaired"] > 0
        assert outcome.archival["failed_reconstructions"] == 0
        assert outcome.storage_total_bytes > 0

    def test_thaw_backfills_a_target_that_missed_header_gossip(self):
        """Regression: at seed 1 a re-warmed block thaws onto a member
        that was cut off while its header gossiped; handing it the
        decoded body used to raise ``ValidationError: header arrived
        before its parent``."""
        outcome = self.endurance(seed=1, queries=8)
        assert outcome.archival["blocks_thawed"] > 0
        assert outcome.integrity_restored

    def test_archival_golden_signature(self):
        signature = self.endurance().signature()
        assert "archival" in signature
        blob = json.dumps(signature, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == ARCHIVAL_GOLDEN_SHA, signature

    def test_disabled_runs_carry_no_archival_key(self):
        outcome = self.endurance(archival=False, adaptive=True)
        assert outcome.archival == {}
        signature = outcome.signature()
        assert "archival" not in signature
        # Byte-identical-when-disabled, pinned next to PR 7's: with the
        # tier off, the adaptive endurance run still reproduces its own
        # golden signature exactly.
        blob = json.dumps(signature, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == ADAPTIVE_GOLDEN_SHA, signature

    def test_trace_carries_archival_story(self):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace
        from repro.obs.tracer import Tracer
        from repro.sim.chaos import EnduranceConfig, run_endurance

        tracer = Tracer()
        run_endurance(
            EnduranceConfig(**ARCHIVAL_GOLDEN_CONFIG),
            limits=TEST_LIMITS,
            tracer=tracer,
        )
        payload = to_chrome_trace(tracer, label="archival test")
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        assert "block_archived" in names
        assert "chunk_repaired" in names
        counters = {
            event["name"]
            for event in events
            if event["ph"] == "C" and event["name"].startswith("tier ")
        }
        assert "tier archival coded bytes" in counters

    def test_report_renders_archival_section(self):
        from repro.analysis.report import render_endurance_summary

        archival = render_endurance_summary(self.endurance())
        assert "## Archival coding" in archival
        assert "blocks archived / thawed" in archival
        assert "lazy reconstructions" in archival
        plain = render_endurance_summary(
            self.endurance(archival=False, adaptive=True)
        )
        assert "## Archival coding" not in plain

    def test_cli_archival_flag(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "archival.md"
        code = main(
            [
                "endurance",
                "--archival",
                "--seed", "42",
                "--nodes", "15",
                "--groups", "3",
                "--blocks", "6",
                "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Archival coding" in out
        assert "## Archival coding" in report.read_text()
