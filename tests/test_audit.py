"""The ledger audit (:mod:`repro.sim.audit`) and the run verdict.

Positive audits ride every chaos/endurance test; this module is where
an audit is seen returning ``False``.  Each negative case hand-breaks a
healed clean-weather deployment in one specific way and checks which
predicates flip and which hold, then that the run's ``passed`` verdict
(the CLI exit code) follows.  The feature-combination sweep at the end
is the positive counterpart: every valid subset of the four opt-in
features passes in clean weather.
"""

from __future__ import annotations

import itertools

import pytest

from repro.sim.audit import (
    cluster_integrity,
    diversity_met,
    floor_met,
    holdings,
    uncovered_pairs,
)
from repro.sim.chaos import (
    ChaosConfig,
    ChaosOutcome,
    EnduranceConfig,
    EnduranceOutcome,
    run_endurance,
)
from repro.storage.heat import HOT
from tests.conftest import TEST_LIMITS

#: The golden endurance population with every fault and churn rate off.
CLEAN = dict(
    seed=42,
    n_nodes=15,
    n_clusters=3,
    n_blocks=6,
    drop_rate=0.0,
    duplicate_rate=0.0,
    delay_rate=0.0,
    join_rate=0.0,
    leave_rate=0.0,
    crash_rate=0.0,
    crash_count=0,
    partition=False,
)


def clean_run(**features) -> EnduranceOutcome:
    return run_endurance(
        EnduranceConfig(**CLEAN, **features), limits=TEST_LIMITS
    )


def verdicts(deployment) -> dict[str, bool]:
    return {
        "integrity": all(
            cluster_integrity(deployment, view.cluster_id)
            for view in deployment.clusters.views()
        ),
        "floor": floor_met(deployment),
        "shed_floor": floor_met(deployment, shed_only=True),
        "diversity": diversity_met(deployment),
        "covered": uncovered_pairs(deployment) == 0,
    }


def reaudit(outcome: EnduranceOutcome) -> None:
    """Re-record the verdict fields the run's audit phase records."""
    deployment = outcome.deployment
    outcome.cluster_integrity = {
        view.cluster_id: cluster_integrity(deployment, view.cluster_id)
        for view in deployment.clusters.views()
    }
    outcome.replica_floor_met = floor_met(deployment)
    if outcome.domains:
        outcome.domains["diversity_met"] = int(diversity_met(deployment))


def replicated_rows(deployment):
    """Non-genesis cells of the first cluster held as full replicas."""
    first = next(iter(deployment.clusters.views())).cluster_id
    return [
        row
        for row in holdings(deployment, first)
        if not row.header.is_genesis and row.tier is None
    ]


# ------------------------------------------------------------ the breakages
def drop_one_replica(deployment):
    row = next(r for r in replicated_rows(deployment) if len(r.holders) == 2)
    deployment.nodes[row.holders[0]].unassign_body(row.header.block_hash)


def shed_a_cold_blocks_last_copy(deployment):
    row = next(r for r in replicated_rows(deployment) if r.target == 1)
    (keeper,) = row.holders
    deployment.nodes[keeper].unassign_body(row.header.block_hash)


def leave_a_hot_target_unfilled(deployment):
    row = next(r for r in replicated_rows(deployment) if len(r.holders) == 2)
    deployment.replication_planner.tiers[row.header.block_hash] = HOT


def crash_two_chunk_holders(deployment):
    row = next(r for r in holdings(deployment) if r.tier is not None)
    assert len(row.chunk_holders) == 4  # the default 3+1 code
    for holder in row.chunk_holders[:2]:
        deployment.network.faults.crash(holder)


def stack_both_replicas_in_one_zone(deployment):
    domains = deployment.domains
    for row in replicated_rows(deployment):
        kept, moved = row.holders
        spare = [
            member
            for member in row.live
            if member not in row.holders
            and domains.zone_of(member) == domains.zone_of(kept)
        ]
        if spare:
            block_hash = row.header.block_hash
            deployment.nodes[moved].unassign_body(block_hash)
            deployment.nodes[spare[0]].assign_body(
                deployment.ledger.store.body(block_hash)
            )
            return
    raise AssertionError("no block can be stacked into one zone")


def empty_a_cluster_of_a_block(deployment):
    row = replicated_rows(deployment)[0]
    for holder in row.holders:
        deployment.nodes[holder].unassign_body(row.header.block_hash)


ALL_HOLD = dict(
    integrity=True, floor=True, shed_floor=True, diversity=True, covered=True
)
BLOCK_GONE = dict(integrity=False, floor=False, shed_floor=False, covered=False)

#: (features, breakage, the predicates it flips — the rest must hold).
NEGATIVE_CASES = [
    ({}, drop_one_replica, dict(floor=False, shed_floor=False)),
    (dict(adaptive=True), shed_a_cold_blocks_last_copy, BLOCK_GONE),
    # A deficit toward a hot target is repair work, not a bad shed.
    (dict(adaptive=True), leave_a_hot_target_unfilled, dict(floor=False)),
    (dict(archival=True), crash_two_chunk_holders, BLOCK_GONE),
    (
        dict(domains=True),
        stack_both_replicas_in_one_zone,
        dict(diversity=False),
    ),
    ({}, empty_a_cluster_of_a_block, BLOCK_GONE),
]


@pytest.mark.parametrize(
    "features, breakage, flipped",
    NEGATIVE_CASES,
    ids=[case[1].__name__ for case in NEGATIVE_CASES],
)
def test_each_breakage_flips_its_predicate_and_the_verdict(
    features, breakage, flipped
):
    outcome = clean_run(**features)
    assert verdicts(outcome.deployment) == ALL_HOLD
    assert outcome.passed
    breakage(outcome.deployment)
    assert verdicts(outcome.deployment) == {**ALL_HOLD, **flipped}
    reaudit(outcome)
    assert not outcome.passed


def test_integrity_is_one_definition_and_counts_decodable_chunks():
    """``cluster_holds_full_ledger`` is archival-aware: an archived
    block holds zero full replicas yet the cluster is whole."""
    deployment = clean_run(archival=True).deployment
    coded = [row for row in holdings(deployment) if row.tier is not None]
    assert coded and not any(row.held for row in coded)
    assert all(
        deployment.cluster_holds_full_ledger(view.cluster_id)
        for view in deployment.clusters.views()
    )


# --------------------------------------------------------------- the verdict
class TestPassed:
    def whole(self, **fields) -> ChaosOutcome:
        return ChaosOutcome(
            config=ChaosConfig(), cluster_integrity={0: True}, **fields
        )

    def test_requires_every_dht_audit_lookup_to_resolve(self):
        assert self.whole(
            dht={"audit_lookups": 8, "audit_lookups_ok": 8}
        ).passed
        assert not self.whole(
            dht={"audit_lookups": 8, "audit_lookups_ok": 7}
        ).passed

    def test_requires_zone_diversity_on_domain_runs(self):
        assert self.whole(domains={"diversity_met": 1}).passed
        assert not self.whole(domains={"diversity_met": 0}).passed

    def test_requires_integrity_and_on_endurance_the_floor(self):
        assert self.whole().passed
        assert not ChaosOutcome(
            config=ChaosConfig(), cluster_integrity={0: True, 1: False}
        ).passed
        holed = EnduranceOutcome(
            config=EnduranceConfig(), cluster_integrity={0: True}
        )
        assert not holed.passed
        holed.replica_floor_met = True
        assert holed.passed

    @pytest.mark.parametrize(
        "audit, code",
        [
            (dict(domains={"diversity_met": 1}), 0),
            (dict(domains={"diversity_met": 0}), 1),
            (dict(dht={"audit_lookups": 8, "audit_lookups_ok": 7}), 1),
        ],
    )
    def test_cli_exit_code_is_the_verdict(
        self, monkeypatch, capsys, audit, code
    ):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "run_chaos", lambda config: self.whole(**audit)
        )
        assert repro.cli.main(["chaos"]) == code
        assert "cluster integrity: restored" in capsys.readouterr().out


# ------------------------------------------------------ feature combinations
FEATURES = ("adaptive", "archival", "domains", "dht")
VALID_SUBSETS = [
    flags
    for flags in itertools.product((False, True), repeat=len(FEATURES))
    # The archival tier implies (and enables) the adaptive path.
    if flags[0] or not flags[1]
]


@pytest.mark.parametrize(
    "flags",
    VALID_SUBSETS,
    ids=[
        "+".join(name for name, on in zip(FEATURES, flags) if on) or "none"
        for flags in VALID_SUBSETS
    ],
)
def test_every_feature_combination_passes_in_clean_weather(flags):
    outcome = clean_run(**dict(zip(FEATURES, flags)))
    assert outcome.passed, outcome.signature()
    assert verdicts(outcome.deployment) == ALL_HOLD
