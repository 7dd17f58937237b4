"""Token bank: issuance, splits, provenance lineage, conservation, replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dice import codec
from dice.errors import (
    ForeignWallet,
    InsufficientBalance,
    NonPositiveAmount,
    PayloadRejected,
    UnknownLot,
    UnknownSigner,
    UnknownWallet,
)
from dice.ledger import ChannelClose, ChannelOpen, Issue, Ledger, make_transaction
from dice.tokenbank import TokenBank, tokens_for_bytes

from helpers import bank_snapshot

ROSTER = ["H", "V", "X"]
KEYS = {m: codec.derive_key(0, m) for m in ROSTER}


@pytest.fixture
def bank():
    ledger = Ledger(ROSTER, KEYS)
    return TokenBank(ledger)


def test_token_granularity_covers_the_average_visit():
    # Average visit is ~2.5MB; at 100KB per token that is exactly 25 tokens.
    assert tokens_for_bytes(2_500_000) == -(-2_500_000 // 100_000) == 25


def test_issue_creates_lot_and_supply(bank):
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 25, now=1)
    assert bank.balance(w, "H") == 25
    assert bank.balance(w, "V") == 0
    assert bank.issued_by["H"] == 25
    lot = bank.lots_of(w, "H")[0]
    assert lot.issuer == "H" and lot.holder == w
    assert len(lot.lineage) == 1


def test_issue_by_non_issuer(bank):
    # The ledger's signer rule: an actor with no key cannot sign the Issue.
    w = bank.create_wallet("bob", "UNKNOWN-MNO")
    with pytest.raises(UnknownSigner):
        bank.issue("UNKNOWN-MNO", w, 10, now=1)


def test_issue_into_foreign_wallet(bank):
    w = bank.create_wallet("carol", "V")
    with pytest.raises(ForeignWallet):
        bank.issue("H", w, 10, now=1)


def test_issue_non_positive(bank):
    w = bank.create_wallet("alice", "H")
    for amount in (0, -5):
        with pytest.raises(NonPositiveAmount):
            bank.issue("H", w, amount, now=1)


def test_negative_amounts_rejected_by_apply(bank):
    """Token amounts are non-negative ints for every payload kind; a
    rejected transaction leaves the bank and the pending list as they were."""
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 25, now=1)
    sign = bank.ledger.signer_backend
    bank.ledger.submit(make_transaction(
        2, "H", ChannelOpen("ch-1", w, "V", 10, codec.digest(b"p"), 999), sign))
    before = (bank_snapshot(bank), list(bank.ledger.pending))
    with pytest.raises(NonPositiveAmount):
        bank.apply(make_transaction(3, "H", Issue("H", w, -5), sign))
    with pytest.raises(PayloadRejected):
        bank.apply(make_transaction(3, "H", ChannelClose("ch-1", -1, 11, 1), sign))
    with pytest.raises(PayloadRejected):
        bank.apply(make_transaction(3, "H", ChannelClose("ch-1", 5.0, 5, 1), sign))
    with pytest.raises(PayloadRejected, match="amount must be of type int"):
        bank.ledger.submit(make_transaction(4, "H", Issue("H", w, True), sign))
    assert (bank_snapshot(bank), list(bank.ledger.pending)) == before


def test_create_identities_funds_unlinked_wallets(bank):
    wallets = bank.create_identities("H", "alice", 3, [10, 10, 5], now=1)
    assert len(set(wallets)) == 3
    assert sum(bank.balance(w, "H") for w in wallets) == 25


def test_create_identities_single_degenerates_to_issue(bank):
    (w,) = bank.create_identities("H", "alice", 1, [10], now=1)
    assert bank.balance(w, "H") == 10


def test_create_identities_validates_shape(bank):
    with pytest.raises(NonPositiveAmount):
        bank.create_identities("H", "alice", 2, [10], now=1)


@pytest.mark.parametrize("amounts", [[0], [5, 0], [5, 5, -1]], ids=["only", "second", "third"])
def test_a_rejected_identity_leaves_the_bank_a_replay_builds(bank, amounts):
    """The wallet whose issue is rejected is gone; those funded before it,
    whose issues are on the ledger, stay."""
    with pytest.raises(NonPositiveAmount):
        bank.create_identities("H", "alice", len(amounts), amounts, now=1)
    assert len(bank.wallets) == len(amounts) - 1
    if bank.ledger.pending:
        bank.ledger.seal_block(2)
    assert bank_snapshot(bank) == bank_snapshot(TokenBank.rebuild_from_ledger(bank.ledger))


def test_create_identities_skips_a_generated_id_an_issue_took(bank):
    """An Issue may name any wallet id, the next generated one included."""
    bank.issue("H", "w-0000001", 5, 1)
    wallets = bank.create_identities("H", "alice", 2, [10, 10], 2)
    assert len(set(wallets)) == 2 and "w-0000001" not in wallets
    for w in wallets:
        assert bank.wallet(w).owner == "alice"
        assert bank.balance(w, "H") == 10
    assert bank.wallet("w-0000001").owner is None
    assert bank.balance("w-0000001", "H") == 5


def test_transfer_whole_lot(bank):
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    bank.issue("H", src, 25, now=1)
    cause = codec.digest(b"cause")
    moved = bank.transfer(src, dst, "H", 25, cause)
    assert len(moved) == 1
    lot = bank.lot(moved[0])
    assert lot.holder == dst and len(lot.lineage) == 2
    assert bank.balance(src, "H") == 0 and bank.balance(dst, "H") == 25


def test_transfer_with_split_conserves_amounts(bank):
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    bank.issue("H", src, 25, now=1)
    parent = bank.lots_of(src, "H")[0]
    moved = bank.transfer(src, dst, "H", 10, codec.digest(b"c"))
    child = bank.lot(moved[0])
    assert child.amount == 10 and parent.amount == 15
    assert child.amount + parent.amount == 25
    assert bank.balance(src, "H") == 15 and bank.balance(dst, "H") == 10
    # Child lineage is the parent's prefix plus the move event.
    assert child.lineage[:-1] == parent.lineage
    assert child.lineage[-1].holder == dst


def test_transfer_insufficient(bank):
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    bank.issue("H", src, 25, now=1)
    with pytest.raises(InsufficientBalance):
        bank.transfer(src, dst, "H", 30, codec.digest(b"c"))


def test_transfer_of_no_tokens_or_fewer_is_rejected(bank):
    """No caller moves 0 or fewer tokens; a negative split would mint a lot
    of a negative amount."""
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    bank.issue("H", src, 25, now=1)
    before = bank_snapshot(bank)
    for amount in (0, -3):
        with pytest.raises(NonPositiveAmount):
            bank.transfer(src, dst, "H", amount, codec.digest(b"c"))
        assert bank_snapshot(bank) == before


def test_transfer_respects_locks(bank):
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    bank.issue("H", src, 25, now=1)
    bank.lock(src, "ch-x", 20)
    assert bank.balance(src, "H") == 25
    assert bank.spendable(src, "H") == 5
    with pytest.raises(InsufficientBalance):
        bank.transfer(src, dst, "H", 10, codec.digest(b"c"))
    bank.transfer(src, dst, "H", 5, codec.digest(b"c"))
    assert bank.release_lock(src, "ch-x") == 20
    assert bank.spendable(src, "H") == 20


def test_lock_requires_spendable_balance(bank):
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 10, now=1)
    bank.lock(w, "ch-1", 10)
    with pytest.raises(InsufficientBalance):
        bank.lock(w, "ch-2", 1)


def test_balance_cases(bank):
    w = bank.create_wallet("alice", "H")
    assert bank.balance(w, "H") == 0
    bank.issue("H", w, 25, now=1)
    assert bank.balance(w, "H") == 25
    dst = bank.create_wallet("bob", "H")
    bank.transfer(w, dst, "H", 10, codec.digest(b"c"))
    assert bank.balance(w, "H") == 15


def test_unknown_wallet_and_lot(bank):
    with pytest.raises(UnknownWallet):
        bank.balance("nope", "H")
    with pytest.raises(UnknownLot):
        bank.lot("nope")


def test_trace_fresh_lot(bank):
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 5, now=1)
    lineage = bank.lot(bank.lots_of(w, "H")[0].lot_id).lineage
    assert len(lineage) == 1
    assert lineage[0].holder == w


def test_burn_removes_from_circulation(bank):
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 5, now=1)
    lot = bank.lots_of(w, "H")[0]
    bank.burn([lot.lot_id])
    assert bank.balance(w, "H") == 0
    assert bank.burned_by["H"] == 5
    assert bank.supply_closure_ok()


def held(bank, wallet_id):
    return [lot.lot_id for lot in bank.lots_of(wallet_id, "H")]


def test_transfer_and_burn_keep_each_holders_lot_order(bank):
    src = bank.create_wallet("alice", "H")
    dst = bank.create_wallet("bob", "H")
    for amount in (3, 7, 5, 2):
        bank.issue("H", src, amount, now=1)
    l0, l1, l2, l3 = (lot.lot_id for lot in bank.lots_of(src, "H"))
    # Largest lots move whole; the 1 still due splits off l0.
    moved = bank.transfer(src, dst, "H", 13, codec.digest(b"c"))
    l4 = moved[-1]
    assert moved == [l1, l2, l4]
    assert held(bank, src) == [l0, l3]
    assert held(bank, dst) == [l1, l2, l4]
    # A wallet paying itself moves its whole lots to the end of its list.
    bank.transfer(dst, dst, "H", 12, codec.digest(b"d"))
    assert held(bank, dst) == [l4, l1, l2]
    bank.burn([l3, l1, l0])
    assert held(bank, src) == []
    assert held(bank, dst) == [l4, l2]
    assert bank.burned_by["H"] == 2 + 7 + 2
    assert bank.supply_closure_ok()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40)),
    min_size=1, max_size=30,
))
def test_conservation_under_random_ops(ops):
    """Per-issuer conservation and non-negative balances hold under any
    interleaving of issues and transfers."""
    ledger = Ledger(ROSTER, KEYS)
    bank = TokenBank(ledger)
    wallets = [bank.create_wallet(f"u{i}", "H") for i in range(4)]
    issued = 0
    now = 0
    for src_i, dst_i, amount in ops:
        now += 1
        if src_i == dst_i:
            bank.issue("H", wallets[src_i], amount, now=now)
            issued += amount
        else:
            try:
                bank.transfer(wallets[src_i], wallets[dst_i], "H", amount, codec.digest(bytes([now])))
            except InsufficientBalance:
                pass
        total = sum(bank.balance(w, "H") for w in wallets)
        assert total == issued
        assert all(bank.balance(w, "H") >= 0 for w in wallets)
        assert bank.supply_closure_ok()


def test_lineage_tx_ids_exist_on_ledger(bank):
    """Lineage soundness: every lineage entry's tx is a real submitted tx."""
    w = bank.create_wallet("alice", "H")
    bank.issue("H", w, 25, now=1)
    bank.ledger.seal_block(2)
    sealed = {tx.tx_id for tx in bank.ledger.all_txs()}
    for lot in bank.lots.values():
        for entry in lot.lineage:
            assert entry.tx_id in sealed
