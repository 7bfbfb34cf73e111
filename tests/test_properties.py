"""Property-based tests (hypothesis) for placement and layout.

These are the invariants the chaos suite leans on: placement always
yields exactly ``r`` distinct in-cluster holders no matter the membership
(so every chunk has a holder to retry against) and layout totals are
exact closed forms; the parity-group battery lives in
``tests/test_coded_properties.py`` beside the codec it runs on.
``derandomize=True`` keeps CI deterministic — hypothesis explores the
same example set every run.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import PlacementError
from repro.net.domains import FailureDomainMap
from repro.storage.layout import (
    balanced_clusters,
    ici_layout,
    synthetic_chain,
)
from repro.storage.placement import (
    DomainSpreadPlacement,
    ModuloSlotPlacement,
    RendezvousPlacement,
    RoundRobinPlacement,
    load_imbalance,
    placement_load,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

POLICIES = [
    RendezvousPlacement,
    ModuloSlotPlacement,
    RoundRobinPlacement,
]


def header_at(height: int, salt: int = 0) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=ZERO_HASH,
        merkle_root=sha256(f"prop-{salt}-{height}".encode()),
        timestamp=float(height),
        nonce=height,
    )


members_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000),
    min_size=1,
    max_size=12,
    unique=True,
)


class TestPlacementProperties:
    @pytest.mark.parametrize("policy_cls", POLICIES)
    @SETTINGS
    @given(
        members=members_strategy,
        height=st.integers(min_value=0, max_value=500),
        replication=st.integers(min_value=1, max_value=12),
    )
    def test_exactly_r_distinct_in_cluster_holders(
        self, policy_cls, members, height, replication
    ):
        """Every chunk gets exactly ``r`` distinct holders, all members."""
        header = header_at(height)
        policy = policy_cls()
        if replication > len(members):
            with pytest.raises(PlacementError):
                policy.holders(header, members, replication)
            return
        holders = policy.holders(header, members, replication)
        assert len(holders) == replication
        assert len(set(holders)) == replication
        assert set(holders) <= set(members)

    @pytest.mark.parametrize("policy_cls", POLICIES)
    @SETTINGS
    @given(
        members=members_strategy,
        height=st.integers(min_value=0, max_value=500),
    )
    def test_caller_order_is_irrelevant(self, policy_cls, members, height):
        """Placement is a function of the *set* of members (determinism)."""
        header = header_at(height)
        policy = policy_cls()
        replication = min(2, len(members))
        forward = policy.holders(header, members, replication)
        backward = policy.holders(header, list(reversed(members)), replication)
        assert forward == backward
        assert forward == policy.holders(header, members, replication)

    @SETTINGS
    @given(
        members=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=2,
            max_size=10,
            unique=True,
        ),
        joiner=st.integers(min_value=10_001, max_value=20_000),
        height=st.integers(min_value=0, max_value=500),
    )
    def test_rendezvous_membership_stability(self, members, joiner, height):
        """A join only ever hands chunks *to the joiner* (HRW stability)."""
        header = header_at(height)
        policy = RendezvousPlacement()
        replication = min(2, len(members))
        before = set(policy.holders(header, members, replication))
        after = set(policy.holders(header, members + [joiner], replication))
        assert after <= before | {joiner}

    def test_rendezvous_load_is_balanced(self):
        """Max/mean load stays near 1 over a long chain (E9's claim)."""
        headers = [header_at(height) for height in range(400)]
        load = placement_load(
            headers, members=list(range(10)), replication=2,
            policy=RendezvousPlacement(),
        )
        assert sum(load.values()) == 400 * 2
        assert all(count > 0 for count in load.values())
        assert load_imbalance(load) < 1.5


def reference_ranking(header: BlockHeader, members) -> list[int]:
    """HRW from scratch, no memo: the definition the policies must equal."""
    return sorted(
        members,
        key=lambda member: (
            hashlib.sha256(
                header.block_hash + member.to_bytes(8, "big")
            ).digest()[:8],
            member,
        ),
        reverse=True,
    )


def reference_rendezvous(header, members, replication) -> tuple[int, ...]:
    return tuple(sorted(reference_ranking(header, members)[:replication]))


def reference_domain_spread(
    domains: FailureDomainMap, header, members, replication
) -> tuple[int, ...]:
    """Greedy over the reference ranking: new zone, then fill."""
    ranked = reference_ranking(header, members)
    chosen: list[int] = []
    for label_of in (domains.zone_of, lambda member: member):
        for member in ranked:
            taken = {label_of(holder) for holder in chosen}
            if len(chosen) < replication and label_of(member) not in taken:
                chosen.append(member)
    return tuple(sorted(chosen))


#: (join?, pick) steps: a join adds ``pick`` if new, a leave removes the
#: member at ``pick mod size``.
churn_strategy = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=10_000)),
    max_size=10,
)


def churned(members: list[int], steps, floor: int):
    """The membership after each step, never below ``floor`` members."""
    members = list(members)
    yield members
    for join, pick in steps:
        if join and pick not in members:
            members = members + [pick]
        elif not join and len(members) > floor:
            members = [m for m in members if m != members[pick % len(members)]]
        else:
            continue
        yield members


#: (cluster, kind, pick) steps over two clusters with small id pools, so
#: a join often re-adds an id that left: kind 0 leaves the member at
#: ``pick mod size``, kind 1 adds ``pick`` from the pool, kind 2 adds
#: ``max + 1`` the way ``core.bootstrap`` numbers a joiner.
traversal_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=24,
)


def reference_diff(headers, old, new, replication):
    """What ``reassignments`` must yield, from the uncached ranking."""
    moved = []
    for header in headers:
        before = reference_rendezvous(header, old, replication)
        after = reference_rendezvous(header, new, replication)
        if set(before) != set(after):
            moved.append((header, before, after))
    return moved


class TestMemoizedPlacementEquivalence:
    """Score rows + grouped memo never change an answer.

    One long-lived policy instance is walked through a random join/leave
    sequence and asked for replication ``r-1 … r+2`` at every step (all
    sharing one score row per block); each answer, miss and hit alike,
    must equal the uncached reference.  The memo retires what churn
    replaced: with two clusters churning on one instance, every change
    walks ``reassignments(old, new)`` twice, as a join's plan and prune
    do, and the memo holds at most two groups per cluster (a membership
    and the one it came from) and scores only for members still in one.
    """

    HEADERS = [header_at(height, salt=7) for height in range(5)]

    def _walk(self, policy, reference, members, steps, replication):
        for current in churned(members, steps, floor=replication):
            for r in range(max(1, replication - 1), replication + 3):
                if r > len(current):
                    continue
                for header in self.HEADERS:
                    expected = reference(header, current, r)
                    assert policy.holders(header, current, r) == expected
                    assert policy.holders(header, tuple(current), r) == expected

    @SETTINGS
    @given(
        members=members_strategy,
        steps=churn_strategy,
        replication=st.integers(min_value=1, max_value=3),
    )
    def test_rendezvous_equals_uncached_ranking(
        self, members, steps, replication
    ):
        self._walk(
            RendezvousPlacement(),
            reference_rendezvous,
            members,
            steps,
            min(replication, len(members)),
        )

    @SETTINGS
    @given(
        members=members_strategy,
        steps=churn_strategy,
        replication=st.integers(min_value=1, max_value=3),
    )
    def test_domain_spread_equals_uncached_greedy(
        self, members, steps, replication
    ):
        domains = FailureDomainMap(zones=3)
        self._walk(
            DomainSpreadPlacement(domains),
            lambda header, current, r: reference_domain_spread(
                domains, header, current, r
            ),
            members,
            steps,
            min(replication, len(members)),
        )

    @SETTINGS
    @given(steps=traversal_strategy, replication=st.integers(1, 3))
    # 3 leaves, comes back as ``max + 1`` (its memoized group is hit, its
    # scores are gone), then a join reads that group as the old side.
    @example(steps=[(0, 0, 3), (0, 2, 0), (0, 2, 0)], replication=2)
    def test_rendezvous_traversals_equal_uncached_diff(
        self, steps, replication
    ):
        policy = RendezvousPlacement()
        clusters = [[0, 1, 2, 3], [100, 101, 102, 103]]
        for cluster, kind, pick in steps:
            old = clusters[cluster]
            pool = range(100 * cluster, 100 * cluster + 12)
            if kind == 0 and len(old) > replication:
                new = [m for m in old if m != old[pick % len(old)]]
            elif kind == 1 and pool[pick] not in old:
                new = [*old, pool[pick]]
            elif kind == 2:
                new = [*old, max(old) + 1]
            else:
                continue
            expected = reference_diff(self.HEADERS, old, new, replication)
            for _ in range(2):  # plan, then prune
                got = policy.reassignments(
                    iter(self.HEADERS), tuple(old), tuple(new), replication
                )
                assert list(got) == expected
            for header in self.HEADERS:
                assert policy.holders(
                    header, new, replication
                ) == reference_rendezvous(header, new, replication)
            clusters[cluster] = new
            live = set(clusters[0]) | set(clusters[1])
            assert len(policy._groups) <= 2 * len(clusters)
            assert all(set(row) <= live for row in policy._rows.values())
            assert policy._entries == sum(
                map(len, policy._rows.values())
            ) + sum(map(len, policy._groups.values()))

    @SETTINGS
    @given(
        members=members_strategy,
        steps=churn_strategy,
        replication=st.integers(min_value=1, max_value=3),
    )
    def test_domain_spread_deficit_counts_every_distinct_input(
        self, members, steps, replication
    ):
        """Retiring older-version groups changes no answer and no count.

        The domain map syncs to each membership, as the deployment does
        on a change, so the version moves; the deficit must equal what a
        policy that never retires counts: one per distinct (block,
        membership, r, version) input whose placement shares a zone.
        """
        domains = FailureDomainMap(zones=3)
        policy = DomainSpreadPlacement(domains)
        seen = set()
        short = 0
        for current in churned(members, steps, floor=1):
            domains.sync(current)
            for r in range(1, replication + 1):
                if r > len(current):
                    continue
                for header in self.HEADERS:
                    expected = reference_domain_spread(
                        domains, header, current, r
                    )
                    assert policy.holders(header, current, r) == expected
                    key = (header.block_hash, tuple(current), r, domains.version)
                    if key not in seen:
                        seen.add(key)
                        zones = {domains.zone_of(m) for m in expected}
                        short += len(zones) < len(expected)
            assert {key[2] for key in policy._groups} <= {domains.version}
        assert policy.domain_spread_deficit == short


class TestLayoutProperties:
    @SETTINGS
    @given(
        n_nodes=st.integers(min_value=4, max_value=24),
        n_groups=st.integers(min_value=1, max_value=4),
        n_blocks=st.integers(min_value=0, max_value=12),
        replication=st.integers(min_value=1, max_value=2),
    )
    def test_ici_layout_totals_are_exact(
        self, n_nodes, n_groups, n_blocks, replication
    ):
        """Network storage = n_clusters · r · chain bytes, to the byte."""
        if n_nodes // n_groups < replication:
            return  # degenerate: some cluster smaller than r
        clusters = balanced_clusters(n_nodes, n_groups, seed=1)
        if min(clusters.sizes()) < replication:
            return
        chain = synthetic_chain(n_blocks, mean_body_bytes=10_000, seed=2)
        report = ici_layout(clusters, chain, replication=replication)
        chain_bytes = sum(block.body_bytes for block in chain)
        body_total = sum(node.body_bytes for node in report.per_node)
        assert body_total == clusters.cluster_count * replication * chain_bytes
        body_count = sum(node.body_count for node in report.per_node)
        assert body_count == clusters.cluster_count * replication * n_blocks


class TestEnduranceConvergence:
    """The anti-entropy sweep's contract, re-derived from raw storage.

    Rather than trusting the outcome's audit flags, these walk the healed
    deployment directly: per cluster, the union of what the members hold
    must equal the canonical chain, and each block must keep
    ``min(r, live_cluster_size)`` live replicas.
    """

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_coverage_union_and_replica_floor(self, seed):
        from repro.sim.chaos import EnduranceConfig, run_endurance
        from tests.conftest import TEST_LIMITS

        outcome = run_endurance(
            EnduranceConfig(
                seed=seed,
                n_nodes=12,
                n_clusters=3,
                n_blocks=4,
                queries=0,
            ),
            limits=TEST_LIMITS,
        )
        deployment = outcome.deployment
        canonical = {
            header.block_hash
            for header in deployment.ledger.store.iter_active_headers()
        }
        replication = deployment.config.replication
        for view in deployment.clusters.views():
            stores = [
                deployment.nodes[member].store for member in view.members
            ]
            union = set()
            for store in stores:
                union |= {
                    block.block_hash for block in store.iter_bodies()
                }
            assert canonical <= union, (
                f"cluster {view.cluster_id} lost "
                f"{len(canonical - union)} blocks (seed {seed})"
            )
            live = deployment.network.live_members(sorted(view.members))
            floor = min(replication, len(live))
            for block_hash in canonical:
                holders = sum(
                    1
                    for member in live
                    if deployment.nodes[member].store.has_body(block_hash)
                )
                assert holders >= floor, (
                    f"cluster {view.cluster_id} holds {holders} live "
                    f"replicas of a block, floor {floor} (seed {seed})"
                )
