"""Signed but forged transactions: live submit and chain replay reject them alike.

Each forgery is signed with a key the chain anchors, so hashes, links and
signatures all check out; only the rules of ``TokenBank.apply`` can tell
it apart from a transaction the live engine would have written.
"""

import dataclasses

import pytest

from dice.errors import DiceError
from dice.harness import verify_ledger
from dice.ledger import AgreementRegistration, AttachCheck, ChannelClose, Issue, Redeem, make_transaction
from dice.protocol import LBO, DiceEngine

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
        eng.run_session(session, [(10 + i, nbytes)], 25)
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

    pending, state = list(eng.ledger.pending), eng.bank.snapshot()
    with pytest.raises(DiceError) as live:
        eng.ledger.submit(forged)
    assert type(live.value).__name__ == error
    assert eng.ledger.pending == pending
    assert eng.bank.snapshot() == state

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
