"""Signed but forged transactions: live submit and chain replay reject them alike.

Each forgery is signed with a key the chain anchors, so hashes, links and
signatures all check out; only the rules of ``TokenBank.apply`` can tell
it apart from a transaction the live engine would have written.
"""

import dataclasses
import math

import pytest

from dice.errors import DiceError, DuplicateTx, LedgerParseError, PayloadRejected, UnknownSigner
from dice.harness import verify_ledger
from dice.ledger import (AgreementRegistration, AttachCheck, ChannelClose, ChannelOpen, Issue, Redeem,
                         load_blocks_jsonl, make_transaction)
from dice.protocol import LBO, DiceEngine
from dice.tokenbank import treasury_wallet_id

from helpers import bank_snapshot, run_session

CHARGING = {"model": "per_unit", "rate": 0.04}


def honest_engine():
    """alice settled a partly used channel; bob's channel is still open."""
    eng = DiceEngine(["H", "V"], ["alice", "bob"], seed=41)
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    sessions = {}
    for i, (roamer, nbytes) in enumerate([("alice", 1_000_000), ("bob", 500_000)]):
        wallet = eng.bank.create_identities("H", roamer, 1, [25], 5 + i)[0]
        session = eng.new_session(roamer, wallet, "H", "V", LBO, 5 + i)
        eng.attach_check(session, 5 + i)
        eng.provision_profile(session)
        run_session(eng, session, [(10 + i, nbytes)], 25)
        sessions[roamer] = session
    eng.detach(sessions["alice"], 50)
    eng.ledger.seal_block(60)
    return eng, sessions


def issue_signed_by_another_mno(eng, sessions):
    return make_transaction(70, "V", Issue("H", sessions["alice"].active_wallet, 10), eng.signer)


def issue_by_a_roamer_off_the_roster(eng, sessions):
    # Genesis anchors alice's key, but only roster members issue tokens.
    return make_transaction(70, "alice", Issue("alice", sessions["alice"].active_wallet, 10), eng.signer)


def close_not_splitting_the_deposit(eng, sessions):
    return make_transaction(70, "bob", ChannelClose(sessions["bob"].channel, 5, 5, 5), eng.signer)


def close_paying_without_a_proof(eng, sessions):
    return make_transaction(70, "V", ChannelClose(sessions["bob"].channel, 25, 0, 0), eng.signer)


def redeem_of_a_lot_the_roamer_holds(eng, sessions):
    lots = tuple(l.lot_id for l in eng.bank.lots_of(sessions["alice"].active_wallet, "H"))
    assert lots
    return make_transaction(70, "V", Redeem("V", "H", lots, 0.6), eng.signer)


def earned_lots(eng):
    """The H lots V earned from alice's close."""
    lots = tuple(l.lot_id for l in eng.bank.lots_of(treasury_wallet_id("V"), "H"))
    assert lots
    return lots


def redeem_with_a_negative_fiat(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), -0.6), eng.signer)


def redeem_with_a_bool_fiat(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), True), eng.signer)


def redeem_of_no_lots(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", (), 1e9), eng.signer)


def attach_check_signed_by_a_roamer(eng, sessions):
    return make_transaction(70, "bob", AttachCheck("w-nope", "V", "H", True), eng.signer)


def attach_check_naming_a_home_off_the_roster(eng, sessions):
    return make_transaction(70, "V", AttachCheck(sessions["bob"].active_wallet, "V", "bob", True), eng.signer)


def agreement_signed_by_the_visited_mno(eng, sessions):
    bad = {"model": "per_unit", "rate": -5}
    return make_transaction(70, "V", AgreementRegistration("H", "V", ("H",), bad), eng.signer)


def second_agreement_for_a_pair(eng, sessions):
    return make_transaction(70, "H", AgreementRegistration("H", "V", ("H",), CHARGING), eng.signer)


def agreement_with_a_negative_rate(eng, sessions):
    bad = {"model": "per_unit", "rate": -5}
    return make_transaction(70, "V", AgreementRegistration("V", "H", ("V",), bad), eng.signer)


def agreement_with_a_string_rate(eng, sessions):
    bad = {"model": "per_unit", "rate": "0.04"}
    return make_transaction(70, "V", AgreementRegistration("V", "H", ("V",), bad), eng.signer)


FORGERIES = [
    (issue_signed_by_another_mno, "issue", "NotIssuer"),
    (issue_by_a_roamer_off_the_roster, "issue", "NotIssuer"),
    (close_not_splitting_the_deposit, "channel_close", "PayloadRejected"),
    (close_paying_without_a_proof, "channel_close", "PayloadRejected"),
    (redeem_of_a_lot_the_roamer_holds, "redeem", "ProvenanceRejected"),
    (redeem_with_a_negative_fiat, "redeem", "PayloadRejected"),
    (redeem_with_a_bool_fiat, "redeem", "PayloadRejected"),
    (redeem_of_no_lots, "redeem", "PayloadRejected"),
    (attach_check_signed_by_a_roamer, "attach", "PayloadRejected"),
    (attach_check_naming_a_home_off_the_roster, "attach", "UnknownMno"),
    (agreement_signed_by_the_visited_mno, "agreement", "PayloadRejected"),
    (second_agreement_for_a_pair, "agreement", "DuplicateAgreement"),
    (agreement_with_a_negative_rate, "agreement", "PayloadRejected"),
    (agreement_with_a_string_rate, "agreement", "PayloadRejected"),
]


@pytest.mark.parametrize("forge, kind, error", FORGERIES, ids=[f[0].__name__ for f in FORGERIES])
def test_signed_forgery_is_rejected_live_and_on_replay(forge, kind, error, tmp_path):
    eng, sessions = honest_engine()
    forged = forge(eng, sessions)

    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(DiceError) as live:
        eng.ledger.submit(forged)
    assert type(live.value).__name__ == error
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state

    path = tmp_path / "ledger.jsonl"
    eng.ledger.save_jsonl(path)
    assert verify_ledger(path).valid
    # Bypass the bank's rules: seal the forgery as if a validator let it in.
    eng.ledger.pending.append(forged)
    block = eng.ledger.seal_block(80)
    eng.ledger.save_jsonl(path)
    result = verify_ledger(path)
    assert not result.valid
    assert result.first_invalid_height == block.height
    assert result.reason.startswith(f"{kind} tx rejected: {error}: ")


@pytest.mark.parametrize("forge, kind, error", FORGERIES, ids=[f[0].__name__ for f in FORGERIES])
def test_earliest_rejected_height_is_reported(forge, kind, error, tmp_path):
    """A forgery sealed at height 2 and a bad signature at height 3 fail at 2."""
    eng, sessions = honest_engine()
    eng.ledger.pending.append(forge(eng, sessions))
    assert eng.ledger.seal_block(80).height == 2
    honest = make_transaction(90, "H", Issue("H", sessions["bob"].active_wallet, 1), eng.signer)
    eng.ledger.pending.append(dataclasses.replace(honest, signature=bytes(32)))
    eng.ledger.seal_block(90)
    path = tmp_path / "ledger.jsonl"
    eng.ledger.save_jsonl(path)
    result = verify_ledger(path)
    assert not result.valid
    assert result.first_invalid_height == 2
    assert result.reason.startswith(f"{kind} tx rejected: {error}: ")


@pytest.mark.parametrize("fiat", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "10**400"])
def test_redeem_of_a_fiat_no_float_holds_is_rejected_live(fiat):
    """No JSON number states it, so it never reaches a saved chain: the bank
    rejects it on submit, and the parse rejects its literal on load."""
    eng, _ = honest_engine()
    forged = make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), fiat), eng.signer)
    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(PayloadRejected, match="fiat"):
        eng.ledger.submit(forged)
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state
    # The honest redeem of the same lots still goes through.
    eng.ledger.submit(make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), 0.6), eng.signer))


# Signed payloads with a field of a type the live engine never writes, as
# (signer, payload).  No token rule reads these fields, so the bank would take
# them; the payload's generated type check rejects them, on a live submit and
# on the load of a saved chain.
MISTYPED = {
    "channel open timelock 'never'": lambda s: (
        "alice", ChannelOpen("ch-typed", s["alice"].active_wallet, "V", 1, bytes(32), "never")),
    "attach check accepted 'maybe'": lambda s: ("V", AttachCheck(s["bob"].active_wallet, "V", "H", "maybe")),
    "attach check int wallet": lambda s: ("V", AttachCheck(7, "V", "H", True)),
    "issue int wallet": lambda s: ("H", Issue("H", 7, 10)),
    "agreement accepts int": lambda s: ("V", AgreementRegistration("V", "H", (5,), CHARGING)),
}


@pytest.mark.parametrize("forge", MISTYPED.values(), ids=MISTYPED)
def test_mistyped_payload_is_a_parse_error_at_its_line(forge, tmp_path):
    """A live submit rejects it, leaving the ledger and the bank as they were."""
    eng, sessions = honest_engine()
    signer, payload = forge(sessions)
    mistyped = make_transaction(70, signer, payload, eng.signer)
    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(PayloadRejected, match="must be of type"):
        eng.ledger.submit(mistyped)
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state

    # Written past the live check, the loader rejects it at its line.
    eng.ledger.pending.append(mistyped)
    block = eng.ledger.seal_block(80)
    path = tmp_path / "ledger.jsonl"
    eng.ledger.save_jsonl(path)
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == block.height
    result = verify_ledger(path)
    assert not result.valid and result.first_invalid_height == block.height
    assert result.reason.startswith("parse error") and "must be of type" in result.reason


def ledger_state(eng):
    return list(eng.ledger.pending), dict(eng.ledger.tx_index), bank_snapshot(eng.bank)


# Every signed forgery above, as (id, forge(eng, sessions) -> tx).
SIGNED = [(f.__name__, f) for f, _kind, _error in FORGERIES] + [
    (name, lambda eng, sessions, forge=forge: make_transaction(70, *forge(sessions), eng.signer))
    for name, forge in MISTYPED.items()]


@pytest.mark.parametrize("forge", [f for _, f in SIGNED], ids=[name for name, _ in SIGNED])
def test_append_rejects_what_submit_rejects(forge):
    """The live write path runs the rules of ``submit`` and raises its errors,
    leaving the ledger and the bank as they were."""
    eng, sessions = honest_engine()
    tx = forge(eng, sessions)
    state = ledger_state(eng)
    with pytest.raises(DiceError) as submitted:
        eng.ledger.submit(tx)
    assert ledger_state(eng) == state
    with pytest.raises(DiceError) as appended:
        eng.ledger.append(tx.timestamp, tx.signer, tx.payload)
    assert type(appended.value) is type(submitted.value)
    assert ledger_state(eng) == state


def test_append_rejects_an_unknown_signer_and_a_repeat():
    eng, sessions = honest_engine()
    issue = Issue("H", sessions["bob"].active_wallet, 1)
    state = ledger_state(eng)
    with pytest.raises(UnknownSigner):
        eng.ledger.append(90, "mallory", issue)
    assert ledger_state(eng) == state

    eng.ledger.append(90, "H", issue)
    state = ledger_state(eng)
    with pytest.raises(DuplicateTx):
        eng.ledger.append(90, "H", issue)
    with pytest.raises(DuplicateTx):
        eng.ledger.submit(make_transaction(90, "H", issue, eng.signer))
    assert ledger_state(eng) == state
