"""Property tests: ``Mempool.remove_confirmed`` against the full walk.

Finality calls ``remove_confirmed`` once per member per block, almost
always on an empty pool, which it now answers at once.  On random pools
— empty, holding some of the confirmed transactions, holding
transactions that conflict with them, holding unrelated ones — the
returned count and both of the pool's dicts must equal what the full
walk (``tests.conftest.remove_confirmed_reference``) leaves.
``derandomize=True`` keeps CI deterministic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mempool import Mempool, MempoolEntry
from repro.chain.transaction import OutPoint, Transaction, TxInput, TxOutput
from repro.crypto.hashing import sha256
from tests.conftest import TEST_LIMITS, remove_confirmed_reference

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

#: A small outpoint universe, so confirmed and pooled spends collide.
OUTPOINTS = tuple(
    OutPoint(txid=sha256(bytes([coin])), index=index)
    for coin in range(4)
    for index in range(3)
)
_ADDRESS = b"\x01" * 20


def _tx(label: int, spends) -> Transaction:
    return Transaction(
        inputs=tuple(TxInput(outpoint=OUTPOINTS[i]) for i in sorted(spends)),
        outputs=(TxOutput(value=1, address=_ADDRESS),),
        payload=label.to_bytes(2, "big"),
    )


def _pool(pooled) -> Mempool:
    """A pool holding ``pooled`` the way ``add`` leaves it (the spends
    are disjoint, so admission's conflict check would pass)."""
    pool = Mempool(limits=TEST_LIMITS)
    for tx in pooled:
        pool._entries[tx.txid] = MempoolEntry(tx=tx, fee=0)
        for outpoint in tx.outpoints_spent():
            pool._spent_outpoints[outpoint] = tx.txid
    return pool


spends = st.sets(st.integers(0, len(OUTPOINTS) - 1), max_size=3)


@st.composite
def pools_and_blocks(draw):
    free = set(range(len(OUTPOINTS)))
    pooled = []
    for label in range(draw(st.integers(0, 5))):
        mine = draw(spends) & free  # pooled spends never overlap
        free -= mine
        pooled.append(_tx(label, mine))
    confirmed = []
    for label in range(100, 100 + draw(st.integers(0, 5))):
        choice = draw(st.sampled_from(("pooled", "conflicting", "unrelated")))
        if choice == "pooled" and pooled:
            confirmed.append(draw(st.sampled_from(pooled)))
        elif choice == "conflicting":
            confirmed.append(_tx(label, draw(spends)))
        else:
            confirmed.append(_tx(label, draw(spends) & free))
    return pooled, tuple(confirmed)


@SETTINGS
@given(pools_and_blocks())
def test_equals_the_full_walk(case):
    pooled, confirmed = case
    subject, reference = _pool(pooled), _pool(pooled)
    assert subject.remove_confirmed(confirmed) == remove_confirmed_reference(
        reference, confirmed
    )
    assert subject._entries == reference._entries
    assert subject._spent_outpoints == reference._spent_outpoints


def test_an_empty_pool_removes_nothing_and_stays_empty():
    pool = Mempool(limits=TEST_LIMITS)
    block = (_tx(1, {0, 1}), _tx(2, {2}))
    assert pool.remove_confirmed(block) == 0
    assert not pool._entries and not pool._spent_outpoints
    assert pool.remove_confirmed(iter(block)) == 0
