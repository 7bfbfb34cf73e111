"""Unit + property tests for block placement policies."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import PlacementError
from repro.net.domains import FailureDomainMap
from repro.storage import placement as placement_module
from repro.storage.placement import (
    CapacityWeightedPlacement,
    DomainSpreadPlacement,
    ModuloSlotPlacement,
    PlacementPolicy,
    RendezvousPlacement,
    RoundRobinPlacement,
    load_imbalance,
    placement_load,
)

POLICIES = [
    RendezvousPlacement(),
    ModuloSlotPlacement(),
    RoundRobinPlacement(),
    CapacityWeightedPlacement(capacities={}),
]


def header_at(height: int) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=sha256(f"p{height}".encode()),
        merkle_root=ZERO_HASH,
        timestamp=float(height),
    )


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: type(p).__name__)
class TestPolicyContract:
    def test_returns_r_distinct_members(self, policy):
        members = list(range(10))
        holders = policy.holders(header_at(5), members, replication=3)
        assert len(holders) == 3
        assert len(set(holders)) == 3
        assert set(holders) <= set(members)

    def test_deterministic(self, policy):
        members = list(range(8))
        a = policy.holders(header_at(7), members, 2)
        b = policy.holders(header_at(7), members, 2)
        assert a == b

    def test_independent_of_member_ordering(self, policy):
        members = [5, 1, 9, 3, 7]
        a = policy.holders(header_at(4), members, 2)
        b = policy.holders(header_at(4), list(reversed(members)), 2)
        assert set(a) == set(b)

    def test_replication_equal_cluster_size(self, policy):
        members = [3, 1, 2]
        holders = policy.holders(header_at(1), members, 3)
        assert set(holders) == {1, 2, 3}

    def test_zero_replication_rejected(self, policy):
        with pytest.raises(PlacementError):
            policy.holders(header_at(1), [0, 1], 0)

    def test_replication_exceeding_cluster_rejected(self, policy):
        with pytest.raises(PlacementError):
            policy.holders(header_at(1), [0, 1], 3)

    def test_empty_cluster_rejected(self, policy):
        with pytest.raises(PlacementError):
            policy.holders(header_at(1), [], 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 500), st.integers(2, 20), st.data())
    def test_contract_property(self, policy, height, m, data):
        r = data.draw(st.integers(1, m))
        members = list(range(100, 100 + m))
        holders = policy.holders(header_at(height), members, r)
        assert len(set(holders)) == r
        assert set(holders) <= set(members)


class TestBalance:
    def test_rendezvous_roughly_uniform(self):
        members = list(range(10))
        headers = [header_at(h) for h in range(500)]
        load = placement_load(headers, members, 1, RendezvousPlacement())
        assert load_imbalance(load) < 1.5

    def test_round_robin_perfectly_uniform(self):
        members = list(range(10))
        headers = [header_at(h) for h in range(500)]
        load = placement_load(headers, members, 1, RoundRobinPlacement())
        assert load_imbalance(load) == 1.0

    def test_capacity_weighting_shifts_load(self):
        members = list(range(4))
        heavy = CapacityWeightedPlacement(
            capacities={0: 4.0, 1: 1.0, 2: 1.0, 3: 1.0}
        )
        headers = [header_at(h) for h in range(800)]
        load = placement_load(headers, members, 1, heavy)
        assert load[0] > 2 * max(load[1], load[2], load[3]) * 0.7

    def test_capacity_must_be_positive(self):
        with pytest.raises(PlacementError):
            CapacityWeightedPlacement(capacities={0: 0.0})

    def test_load_imbalance_empty_rejected(self):
        with pytest.raises(PlacementError):
            load_imbalance({})


class TestMembershipStability:
    def test_rendezvous_moves_few_blocks_on_join(self):
        """HRW: a join moves ≈ r/(m+1) of blocks; modulo moves ~all."""
        members = list(range(10))
        grown = members + [10]
        headers = [header_at(h) for h in range(400)]
        policy = RendezvousPlacement()
        moved = sum(
            set(policy.holders(h, members, 1))
            != set(policy.holders(h, grown, 1))
            for h in headers
        )
        assert moved / len(headers) < 0.2  # expected ≈ 1/11

    def test_modulo_reshuffles_on_join(self):
        members = list(range(10))
        grown = members + [10]
        headers = [header_at(h) for h in range(400)]
        policy = ModuloSlotPlacement()
        moved = sum(
            set(policy.holders(h, members, 1))
            != set(policy.holders(h, grown, 1))
            for h in headers
        )
        assert moved / len(headers) > 0.7

    def test_join_only_wins_blocks_it_should(self):
        """Under HRW, every reassigned block moves *to the joiner*."""
        members = list(range(10))
        grown = members + [10]
        policy = RendezvousPlacement()
        for h in range(300):
            old = set(policy.holders(header_at(h), members, 2))
            new = set(policy.holders(header_at(h), grown, 2))
            if old != new:
                assert new - old == {10}


class TestRoundRobinSemantics:
    def test_rotation_by_height(self):
        members = [0, 1, 2, 3]
        policy = RoundRobinPlacement()
        assert policy.holders(header_at(0), members, 1) == (0,)
        assert policy.holders(header_at(1), members, 1) == (1,)
        assert policy.holders(header_at(5), members, 1) == (1,)

    def test_replicas_are_consecutive(self):
        members = [0, 1, 2, 3]
        policy = RoundRobinPlacement()
        assert policy.holders(header_at(3), members, 2) == (3, 0)


# ------------------------------------------------------------- reassignments
#: Fresh-instance factories for all five policies: the brute force below
#: must not share a memo with the policy under test.
POLICY_FACTORIES = {
    "rendezvous": RendezvousPlacement,
    "domain_spread": lambda: DomainSpreadPlacement(FailureDomainMap(zones=3)),
    "modulo": ModuloSlotPlacement,
    "round_robin": RoundRobinPlacement,
    "capacity": lambda: CapacityWeightedPlacement({1: 3.0, 4: 0.5}),
}

HEADERS = [header_at(height) for height in range(40)]

#: Derandomized like tests/test_properties.py: the same examples every run.
DELTA_SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def brute_force(factory, old_members, new_members, replication):
    """Two ``holders`` calls per header on an untouched instance."""
    policy = factory()
    moved = []
    for header in HEADERS:
        old = policy.holders(header, old_members, replication)
        new = policy.holders(header, new_members, replication)
        if set(old) != set(new):
            moved.append((header, old, new))
    return moved


@pytest.mark.parametrize(
    "factory", POLICY_FACTORIES.values(), ids=list(POLICY_FACTORIES)
)
class TestReassignments:
    def check(self, policy, factory, old_members, new_members, replication):
        got = list(
            policy.reassignments(
                iter(HEADERS), old_members, new_members, replication
            )
        )
        assert got == brute_force(
            factory, old_members, new_members, replication
        )
        # Whatever the traversal memoized serves the same answers.
        reference = factory()
        for header in HEADERS:
            assert policy.holders(
                header, new_members, replication
            ) == reference.holders(header, new_members, replication)
        return got

    @DELTA_SETTINGS
    @given(
        members=st.lists(st.integers(0, 60), min_size=3, max_size=9, unique=True),
        joiner=st.integers(61, 90),
        replication=st.integers(1, 3),
        warm=st.booleans(),
    )
    def test_single_join(self, factory, members, joiner, replication, warm):
        policy = factory()
        if warm:  # old membership already memoized, as in a live cluster
            for header in HEADERS:
                policy.holders(header, tuple(members), replication)
        moved = self.check(
            policy, factory, tuple(members), (*members, joiner), replication
        )
        if isinstance(policy, RendezvousPlacement):
            assert all(joiner in new for _, _, new in moved)

    @DELTA_SETTINGS
    @given(
        members=st.lists(st.integers(0, 60), min_size=4, max_size=9, unique=True),
        leaver_index=st.integers(0, 8),
        replication=st.integers(1, 3),
        warm=st.booleans(),
    )
    def test_single_leave(
        self, factory, members, leaver_index, replication, warm
    ):
        leaver = members[leaver_index % len(members)]
        survivors = tuple(m for m in members if m != leaver)
        policy = factory()
        if warm:
            for header in HEADERS:
                policy.holders(header, tuple(members), replication)
        moved = self.check(
            policy, factory, tuple(members), survivors, replication
        )
        if isinstance(policy, RendezvousPlacement):
            assert all(leaver in old for _, old, _ in moved)

    @DELTA_SETTINGS
    @given(
        old_members=st.lists(st.integers(0, 30), min_size=3, max_size=9, unique=True),
        new_members=st.lists(st.integers(0, 30), min_size=3, max_size=9, unique=True),
        replication=st.integers(1, 3),
    )
    def test_arbitrary_delta(
        self, factory, old_members, new_members, replication
    ):
        self.check(
            factory(), factory, tuple(old_members), tuple(new_members),
            replication,
        )

    @DELTA_SETTINGS
    @given(
        members=st.lists(st.integers(0, 60), min_size=4, max_size=7, unique=True),
        steps=st.lists(st.booleans(), min_size=2, max_size=6),
    )
    def test_chained_deltas_on_one_instance(self, factory, members, steps):
        """join → leave → … each seeded by the previous traversal's memo."""
        policy = factory()
        current = tuple(members)
        for index, join in enumerate(steps):
            if join:
                following = (*current, 100 + index)
            elif len(current) > 3:
                following = current[1:]
            else:
                continue
            self.check(policy, factory, current, following, 2)
            current = following

    def test_too_small_a_cluster_is_still_rejected(self, factory):
        with pytest.raises(PlacementError):
            list(factory().reassignments(HEADERS, (1, 2, 3), (1, 2), 3))


class TestRendezvousDeltaCost:
    """The single-member delta hashes what changed and nothing else."""

    @pytest.fixture
    def digests(self, monkeypatch):
        calls = []

        def counting_sha256(data):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(placement_module, "_sha256", counting_sha256)
        return calls

    def test_join_is_one_digest_per_block_and_leave_is_none(self, digests):
        policy = RendezvousPlacement()
        members = tuple(range(8))
        for header in HEADERS:
            policy.holders(header, members, 2)
        assert len(digests) == len(HEADERS) * len(members)

        del digests[:]
        grown = (*members, 8)
        list(policy.reassignments(HEADERS, members, grown, 2))
        assert len(digests) == len(HEADERS)
        assert all(data.endswith((8).to_bytes(8, "big")) for data in digests)

        del digests[:]
        shrunk = tuple(m for m in grown if m != 3)
        moved = list(policy.reassignments(HEADERS, grown, shrunk, 2))
        assert moved  # node 3 did hold something
        # ...and both traversals seeded their new membership's group.
        for header in HEADERS:
            policy.holders(header, grown, 2)
            policy.holders(header, shrunk, 2)
        # Another replication factor over the same members: same rows.
        for header in HEADERS:
            policy.holders(header, shrunk, 3)
        assert digests == []

    def test_multi_member_delta_takes_the_generic_diff(self, monkeypatch):
        generic_calls = []
        generic = PlacementPolicy.reassignments

        def spy(self, *args):
            generic_calls.append(args)
            return generic(self, *args)

        monkeypatch.setattr(PlacementPolicy, "reassignments", spy)
        policy = RendezvousPlacement()
        list(policy.reassignments(HEADERS, (1, 2, 3), (1, 2, 3, 4), 2))
        list(policy.reassignments(HEADERS, (1, 2, 3, 4), (1, 2, 4), 2))
        assert generic_calls == []
        list(policy.reassignments(HEADERS, (1, 2, 3), (1, 2, 4), 2))
        list(policy.reassignments(HEADERS, (1, 2, 3), (1, 2, 3, 4, 5), 2))
        list(policy.reassignments(HEADERS, (1, 2, 3), (3, 2, 1), 2))
        assert len(generic_calls) == 3


def memo_entries(policy) -> int:
    """Scores + placements, counted from the structures themselves."""
    return sum(map(len, policy._rows.values())) + sum(
        map(len, policy._groups.values())
    )


class TestMemoLimit:
    def test_entries_are_scores_plus_placements_after_a_retirement(self):
        """A join keeps the group it came from (its prune walks the same
        pair again); the next change retires it, and a leave drops the
        leaver's scores; the count follows every drop exactly."""
        policy = RendezvousPlacement()
        chain = [(1, 2, 3, 4), (1, 2, 3, 4, 5), (1, 2, 4, 5), (1, 2, 4, 5, 6)]
        for old, new in zip(chain, chain[1:]):
            for _ in range(2):  # plan, then prune
                list(policy.reassignments(HEADERS, old, new, 2))
            assert set(policy._groups) == {(old, 2), (new, 2)}
            assert policy._entries == memo_entries(policy)
        assert all(3 not in row for row in policy._rows.values())
        assert all(len(row) == 5 for row in policy._rows.values())

    @pytest.mark.parametrize(
        "factory",
        [POLICY_FACTORIES["rendezvous"], POLICY_FACTORIES["domain_spread"]],
        ids=["rendezvous", "domain_spread"],
    )
    def test_reset_drops_rows_and_groups_together(self, monkeypatch, factory):
        policy = factory()
        monkeypatch.setattr(type(policy), "_CACHE_LIMIT", 64)
        reference = factory()
        resets = 0
        members = tuple(range(6))
        for step in range(12):
            window = HEADERS[2 * step : 2 * step + 10]
            following = (
                (*members, 10 + step) if step % 2 == 0 else members[1:]
            )
            in_window = {h.block_hash for h in window}
            earlier = set(policy._rows) - in_window
            moved = list(policy.reassignments(window, members, following, 2))
            # A retirement drops groups and scores, never a block's row:
            # rows of earlier blocks go only in a reset.
            if earlier and earlier.isdisjoint(policy._rows):
                resets += 1
                # Nothing memoized before the reset survives it: only
                # this traversal's blocks and memberships are left.
                assert set(policy._rows) <= in_window
                assert len(policy._groups) <= 2
            assert moved == list(
                reference.reassignments(window, members, following, 2)
            )
            for header in window:
                assert policy.holders(
                    header, following, 2
                ) == reference.holders(header, following, 2)
            assert policy._entries == memo_entries(policy)
            members = following
        assert resets >= 2
