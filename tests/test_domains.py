"""Failure domains: map, spread placement, correlated faults, and E21.

Covers the whole blast-radius subsystem (:mod:`repro.net.domains`):
the deterministic zone/rack striping and its version counter, the
spread-aware placement policy (distinct zones, audited deficit,
version-keyed cache), the correlated fault machinery (whole-zone
crash and stall through :meth:`FaultInjector.crash_domain`, recovery
through ``heal``), the repair engine's diversity restoration, the
chaos/endurance ``domains=True`` audits, and the E21 aware-vs-oblivious
zone-outage comparison.  Every scenario is seeded and the E21 signature
is pinned for determinism.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chain.block import BlockHeader
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import ConfigurationError, FaultConfigError
from repro.net.domains import FailureDomainMap
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.core.audit import diversity_met
from repro.sim.chaos import EnduranceConfig, run_endurance
from repro.sim.domain_compare import (
    ARMS,
    DomainCompareConfig,
    run_domain_compare,
)
from repro.sim.faults import CRASH, STALL, FaultInjector
from repro.storage.placement import (
    DomainSpreadPlacement,
    RendezvousPlacement,
)
from tests.conftest import TEST_LIMITS, chaos_config

#: sha256 of the E21 acceptance run's sorted-JSON signature.  Pins the
#: killed zone, the identical victim sets, and both arms' full
#: loss/read/diversity bills — any drift in placement, the fault layer,
#: or the repair engine's diversity restoration shows up here.
GOLDEN_E21_SHA = (
    "4e268faf76f117e7d82c398b6771bb79d6fd4ead4f854b1b56aa7f6fd0d5217b"
)


def header_at(height: int) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=sha256(f"p{height}".encode()),
        merkle_root=ZERO_HASH,
        timestamp=float(height),
    )


def fresh_net(count: int) -> Network:
    net = Network(
        clock=SimClock(),
        latency=ConstantLatency(0.1),
        bandwidth_bps=1e9,
    )
    for node_id in range(count):
        net.register(node_id, object())
    return net


def synced(domains: FailureDomainMap) -> set[int]:
    """The population ``domains`` last synced, read zone by zone."""
    return set().union(
        *(domains.members_of_zone(zone) for zone in range(domains.zones))
    )


# ---------------------------------------------------------------- the map
class TestFailureDomainMap:
    def test_striping_is_pure_and_deterministic(self):
        one = FailureDomainMap(zones=3)
        two = FailureDomainMap(zones=3)
        for node_id in range(24):
            assert one.zone_of(node_id) == two.zone_of(node_id) == node_id % 3

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            FailureDomainMap(zones=0)

    def test_sync_bumps_version_only_on_population_change(self):
        domains = FailureDomainMap(zones=2)
        domains.sync(range(6))
        version = domains.version
        domains.sync(range(6))
        assert domains.version == version
        domains.sync(range(7))
        assert domains.version == version + 1
        assert synced(domains) == set(range(7))

    def test_zone_queries(self):
        domains = FailureDomainMap(zones=3)
        domains.sync(range(9))
        assert domains.members_of_zone(0) == [0, 3, 6]
        assert domains.members_of_zone(1, [1, 4, 5]) == [1, 4]
        assert domains.zones_of([0, 1, 3]) == {0, 1}


# ---------------------------------------------------------- spread placement
class TestDomainSpreadPlacement:
    def test_replicas_span_distinct_zones(self):
        domains = FailureDomainMap(zones=4)
        policy = DomainSpreadPlacement(domains)
        members = list(range(12))
        for height in range(20):
            holders = policy.holders(header_at(height), members, 3)
            assert len(holders) == 3
            assert len(domains.zones_of(holders)) == 3
        assert policy.domain_spread_deficit == 0

    def test_deficit_audited_when_zones_short(self):
        # Two zones cannot spread three replicas: every placement
        # increments the deficit counter instead of failing silently.
        domains = FailureDomainMap(zones=2)
        policy = DomainSpreadPlacement(domains)
        members = list(range(6))
        holders = policy.holders(header_at(1), members, 3)
        assert len(holders) == 3
        assert len(domains.zones_of(holders)) == 2
        assert policy.domain_spread_deficit == 1
        # The cached result does not re-count.
        policy.holders(header_at(1), members, 3)
        assert policy.domain_spread_deficit == 1

    def test_cache_keyed_on_map_version(self):
        # Two zones cannot spread three replicas, so every computed (not
        # cached) placement counts one deficit.
        domains = FailureDomainMap(zones=2)
        policy = DomainSpreadPlacement(domains)
        members = list(range(6))
        policy.holders(header_at(5), members, 3)
        policy.holders(header_at(5), members, 3)
        assert policy.domain_spread_deficit == 1
        # A membership sync bumps the version: the spread is recomputed.
        domains.sync(range(7))
        policy.holders(header_at(5), members, 3)
        assert policy.domain_spread_deficit == 2

    def test_same_rank_stream_as_rendezvous(self):
        # One zone per member degenerates to pure rank order — the
        # rendezvous ranking itself, so the two policies agree.
        domains = FailureDomainMap(zones=16)
        spread = DomainSpreadPlacement(domains)
        plain = RendezvousPlacement()
        members = list(range(16))
        for height in range(10):
            header = header_at(height)
            assert spread.holders(header, members, 3) == plain.holders(
                header, members, 3
            )


# --------------------------------------------------------- correlated faults
class TestInjectorDomains:
    def test_crash_domain_requires_bound_resolver(self):
        net = fresh_net(6)
        injector = FaultInjector.install(net)
        with pytest.raises(FaultConfigError):
            injector.crash_domain(0)

    def test_kind_must_be_crash_or_stall(self):
        """Any other kind is a configuration bug, not a stall."""
        net = fresh_net(4)
        domains = FailureDomainMap(zones=2)
        domains.sync(range(4))
        injector = FaultInjector.install(net)
        injector.bind_domains(domains.members_of_zone)
        with pytest.raises(FaultConfigError):
            injector.crash_domain(0, kind="recover")
        assert net.live_members(range(4)) == [0, 1, 2, 3]
        assert injector.domain_outages == []

    def test_crash_and_recover_domain(self):
        net = fresh_net(8)
        domains = FailureDomainMap(zones=2)
        domains.sync(range(8))
        injector = FaultInjector.install(net)
        injector.bind_domains(domains.members_of_zone)
        victims = injector.crash_domain(1)
        assert victims == (1, 3, 5, 7)
        assert net.live_members(range(8)) == [0, 2, 4, 6]
        assert injector.domain_outages == [(0.0, 1, CRASH, victims)]
        recoveries = injector.stats.recoveries
        injector.heal()
        assert net.live_members(range(8)) == list(range(8))
        assert injector.stats.recoveries == recoveries + 4
        # Healing again is a no-op (no double counting).
        injector.heal()
        assert injector.stats.recoveries == recoveries + 4

    def test_crash_domain_skips_already_down(self):
        net = fresh_net(6)
        domains = FailureDomainMap(zones=2)
        domains.sync(range(6))
        injector = FaultInjector.install(net)
        injector.bind_domains(domains.members_of_zone)
        injector.crash(2)
        victims = injector.crash_domain(0)
        assert victims == (0, 4)

    def test_stall_domain(self):
        net = fresh_net(4)
        domains = FailureDomainMap(zones=2)
        domains.sync(range(4))
        injector = FaultInjector.install(net)
        injector.bind_domains(domains.members_of_zone)
        victims = injector.crash_domain(0, kind=STALL)
        assert victims == (0, 2)
        assert injector.stats.stalls == 2
        assert injector.stats.crashes == 0


# ----------------------------------------------------------- deployment wiring
class TestEnableDomainAwareness:
    def test_off_by_default(self):
        deployment = ICIDeployment(
            8, config=ICIConfig(n_clusters=2, limits=TEST_LIMITS)
        )
        assert deployment.domains is None
        assert not isinstance(deployment.placement, DomainSpreadPlacement)

    def test_enable_is_idempotent(self):
        deployment = ICIDeployment(
            8, config=ICIConfig(n_clusters=2, limits=TEST_LIMITS)
        )
        domains = deployment.enable_domain_awareness(zones=2)
        assert deployment.domains is domains
        assert synced(domains) == set(deployment.nodes)
        assert isinstance(deployment.placement, DomainSpreadPlacement)
        assert deployment.placement._domains is domains
        again = deployment.enable_domain_awareness(zones=4)
        assert again is domains
        assert domains.zones == 2


# --------------------------------------------------------------- chaos audit
class TestChaosDomains:
    def test_zone_outage_audit_and_determinism(self):
        config = chaos_config(seed=42, domains=True)
        first = run_endurance(config)
        # The outage killed one whole zone, not a sampled victim.
        assert first.outage_crashed == [3, 7, 11, 15]
        assert first.domains["zone_killed"] == 3
        assert first.domains["outage_victims"] == 4
        assert first.domains["diversity_met"] == 1
        assert first.integrity_restored
        assert "domains" in first.signature()
        second = run_endurance(config)
        assert first.signature() == second.signature()

    def test_without_domains_signature_has_no_domains_key(self):
        outcome = run_endurance(chaos_config(seed=42))
        assert outcome.domains == {}
        assert "domains" not in outcome.signature()

    def test_needs_two_zones(self):
        with pytest.raises(ConfigurationError):
            chaos_config(domains=True, zones=1)


class TestEnduranceDomains:
    def test_zone_outage_audit(self):
        outcome = run_endurance(
            EnduranceConfig(
                seed=42,
                n_nodes=15,
                n_clusters=3,
                n_blocks=6,
                queries=4,
                domains=True,
            )
        )
        assert outcome.outage_crashed == [1, 4, 7, 10, 13]
        assert outcome.domains["zone_killed"] == 1
        assert outcome.domains["diversity_met"] == 1
        # The anti-entropy engine actively restored zone spread (floor
        # already met, blast radius not) — the repair-layer half of the
        # subsystem.
        assert outcome.domains["diversity_repairs"] > 0
        assert outcome.integrity_restored
        assert outcome.replica_floor_met
        assert "domains" in outcome.signature()

    def test_without_domains_signature_has_no_domains_key(self):
        outcome = run_endurance(
            EnduranceConfig(
                seed=42, n_nodes=15, n_clusters=3, n_blocks=6, queries=4
            )
        )
        assert outcome.domains == {}
        assert "domains" not in outcome.signature()


def test_domain_diversity_met_trivially_true_without_map():
    deployment = ICIDeployment(
        8, config=ICIConfig(n_clusters=2, limits=TEST_LIMITS)
    )
    assert diversity_met(deployment)


# ----------------------------------------------------------------- E21 / pin
@pytest.fixture(scope="module")
def e21_outcome():
    return run_domain_compare(
        DomainCompareConfig(
            n_nodes=16, n_clusters=2, n_blocks=6, reads=8
        ),
        limits=TEST_LIMITS,
    )


class TestDomainCompare:
    def test_acceptance_shape(self, e21_outcome):
        assert set(e21_outcome.arms) == set(ARMS)
        assert e21_outcome.aware_lossless
        assert e21_outcome.oblivious_exposed
        assert e21_outcome.diversity_restored
        assert e21_outcome.arms["aware"]["spread_deficit"] == 0
        assert e21_outcome.arms["oblivious"]["rounds_to_diversity"] == -1
        # Identical physical outage in both arms.
        assert e21_outcome.zone_killed >= 0
        assert e21_outcome.victims

    def test_deterministic(self, e21_outcome):
        again = run_domain_compare(
            DomainCompareConfig(
                n_nodes=16, n_clusters=2, n_blocks=6, reads=8
            ),
            limits=TEST_LIMITS,
        )
        assert again.signature() == e21_outcome.signature()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DomainCompareConfig(n_clusters=1)
        with pytest.raises(ConfigurationError):
            DomainCompareConfig(zones=1)
        with pytest.raises(ConfigurationError):
            DomainCompareConfig(replication=1)
        with pytest.raises(ConfigurationError):
            DomainCompareConfig(reads=0)


def test_e21_golden_signature():
    """The full acceptance run, pinned byte-for-byte."""
    outcome = run_domain_compare()
    payload = json.dumps(outcome.signature(), sort_keys=True)
    assert (
        hashlib.sha256(payload.encode()).hexdigest() == GOLDEN_E21_SHA
    )


# ----------------------------------------------------------------- reporting
def test_chaos_summary_renders_failure_domain_section():
    from repro.analysis.report import render_endurance_summary

    outcome = run_endurance(chaos_config(seed=42, domains=True))
    summary = render_endurance_summary(outcome)
    assert "## domains" in summary
    assert "| diversity_met |" in summary
    assert "degraded %" in summary
    plain = render_endurance_summary(run_endurance(chaos_config(seed=42)))
    assert "## domains" not in plain
    assert "degraded %" in plain


def test_cli_chaos_domains_flag(capsys):
    from repro.cli import main

    code = main(["chaos", "--domains", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    assert "## domains" in out
