"""Signed but forged transactions: live submit and chain replay reject them alike.

Most forgeries are signed with a key the chain anchors, so hashes, links and
signatures all check out; only the rules of ``TokenBank.apply`` can tell
them apart from a transaction the live engine would have written.  The
last few break a rule of the ledger itself: its signer, its signature, or
its uniqueness.
"""

import ast
import copy
import dataclasses
import json
import math
import pickle
from collections import Counter

import pytest

from dice import codec, ledger
from dice.errors import DiceError, DuplicateTx, LedgerParseError, PayloadRejected, UnknownSigner
from dice.harness import verify_ledger
from dice.ledger import (AgreementRegistration, AttachCheck, ChannelClose, ChannelOpen, Issue, Ledger, Redeem,
                         load_blocks_jsonl, make_transaction)
from dice.protocol import LBO, DiceEngine
from dice.tokenbank import TokenBank, model_from_dict, price, treasury_wallet_id, verify_blocks

from helpers import RenamedClose, bank_snapshot, forged_tx, mutants, record_of, run_session

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
    return make_transaction(70, "V", Issue("H", sessions["alice"].active_wallet, 10), eng.ledger.signer_backend)


def issue_by_a_roamer_off_the_roster(eng, sessions):
    # Genesis anchors alice's key, but only roster members issue tokens.
    return make_transaction(70, "alice", Issue("alice", sessions["alice"].active_wallet, 10), eng.ledger.signer_backend)


def issue_into_a_wallet_homed_elsewhere(eng, sessions):
    # V signs its own Issue, but alice's wallet is homed at H.
    return make_transaction(70, "V", Issue("V", sessions["alice"].active_wallet, 10), eng.ledger.signer_backend)


def issue_of_no_tokens(eng, sessions):
    return make_transaction(70, "H", Issue("H", sessions["alice"].active_wallet, 0), eng.ledger.signer_backend)


def open_with_no_deposit(eng, sessions):
    opened = ChannelOpen("ch-empty", sessions["bob"].active_wallet, "V", 0, bytes(32), 100)
    return make_transaction(70, "bob", opened, eng.ledger.signer_backend)


def reopen_of_a_closed_channel(eng, sessions):
    # alice still holds 15 spendable tokens, enough for the deposit.
    alice = sessions["alice"]
    opened = ChannelOpen(alice.channel, alice.active_wallet, "V", 5, bytes(32), 100)
    return make_transaction(70, "alice", opened, eng.ledger.signer_backend)


def open_naming_a_vmno_off_the_roster(eng, sessions):
    # Genesis anchors bob's key, but only roster members serve a channel.
    opened = ChannelOpen("ch-bob", sessions["alice"].active_wallet, "bob", 5, bytes(32), 100)
    return make_transaction(70, "alice", opened, eng.ledger.signer_backend)


def open_with_a_short_hashlock(eng, sessions):
    opened = ChannelOpen("ch-short", sessions["alice"].active_wallet, "V", 5, bytes(3), 100)
    return make_transaction(70, "alice", opened, eng.ledger.signer_backend)


def open_expiring_at_its_own_timestamp(eng, sessions):
    # The timelock must end after the open, or no proof could ever be paid.
    opened = ChannelOpen("ch-expired", sessions["alice"].active_wallet, "V", 5, bytes(32), 70)
    return make_transaction(70, "alice", opened, eng.ledger.signer_backend)


def close_of_a_channel_never_opened(eng, sessions):
    return make_transaction(70, "V", ChannelClose("ch-never", 0, 0, 0), eng.ledger.signer_backend)


def second_close_of_a_closed_channel(eng, sessions):
    # A valid split of alice's deposit, but not the one her close recorded.
    return make_transaction(70, "V", ChannelClose(sessions["alice"].channel, 0, 25, 0), eng.ledger.signer_backend)


def close_not_splitting_the_deposit(eng, sessions):
    return make_transaction(70, "bob", ChannelClose(sessions["bob"].channel, 5, 5, 5), eng.ledger.signer_backend)


def close_paying_without_a_proof(eng, sessions):
    return make_transaction(70, "V", ChannelClose(sessions["bob"].channel, 25, 0, 0), eng.ledger.signer_backend)


def redeem_of_a_lot_the_roamer_holds(eng, sessions):
    lots = tuple(l.lot_id for l in eng.bank.lots_of(sessions["alice"].active_wallet, "H"))
    assert lots
    return make_transaction(70, "V", Redeem("V", "H", lots, 0.6), eng.ledger.signer_backend)


def earned_lots(eng):
    """The H lots V earned from alice's close."""
    lots = tuple(l.lot_id for l in eng.bank.lots_of(treasury_wallet_id("V"), "H"))
    assert lots
    return lots


def redeem_with_a_negative_fiat(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), -0.6), eng.ledger.signer_backend)


def redeem_with_a_bool_fiat(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), True), eng.ledger.signer_backend)


def redeem_of_no_lots(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", (), 1e9), eng.ledger.signer_backend)


def agreed_price(eng, lots):
    """What the (H, V) agreement prices these lots at."""
    return price(model_from_dict(CHARGING), sum(eng.bank.lot(l).amount for l in lots))


def redeem_at_a_price_not_agreed(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), 1e9), eng.ledger.signer_backend)


def redeem_signed_by_the_home_mno(eng, sessions):
    lots = earned_lots(eng)
    return make_transaction(70, "H", Redeem("V", "H", lots, agreed_price(eng, lots)), eng.ledger.signer_backend)


def redeem_naming_a_lot_twice(eng, sessions):
    lots = earned_lots(eng) * 2
    return make_transaction(70, "V", Redeem("V", "H", lots, agreed_price(eng, lots)), eng.ledger.signer_backend)


def redeem_of_no_lots_at_the_price_of_none(eng, sessions):
    return make_transaction(70, "V", Redeem("V", "H", (), agreed_price(eng, ())), eng.ledger.signer_backend)


def redeem_with_a_bool_fiat_equal_to_the_agreed_price(eng, sessions):
    # bob's further traffic and close bring V's earned H tokens to 25, priced 1.0 == True.
    eng.session_traffic(sessions["bob"], 1_000_000, 65)
    eng.detach(sessions["bob"], 65)
    lots = earned_lots(eng)
    assert agreed_price(eng, lots) == 1.0
    return make_transaction(70, "V", Redeem("V", "H", lots, True), eng.ledger.signer_backend)


def redeem_of_burned_lots(eng, sessions):
    lots = earned_lots(eng)
    eng.ledger.append(65, "V", Redeem("V", "H", lots, agreed_price(eng, lots)))
    return make_transaction(70, "V", Redeem("V", "H", lots, agreed_price(eng, lots)), eng.ledger.signer_backend)


def lots_v_earned_from_its_own_tokens(eng):
    """V issues 10 tokens to a wallet of bob's homed at V, which pays them all
    to V through a channel; V's treasury then holds them.  No agreement
    (V, V) is registered."""
    wallet = eng.bank.create_identities("V", "bob", 1, [10], 65)[0]
    channel = eng.channels.open_channel(wallet, "V", 10, 65)
    for proof in eng.channels.pay_for_traffic(channel, 1_000_000, 65):
        eng.channels.receive_proof("V", proof)
    eng.channels.close_channel(channel, 65)
    lots = tuple(l.lot_id for l in eng.bank.lots_of(treasury_wallet_id("V"), "V"))
    assert sum(eng.bank.lot(l).amount for l in lots) == 10
    return lots


def redeem_without_an_agreement(eng, sessions):
    lots = lots_v_earned_from_its_own_tokens(eng)
    return make_transaction(70, "V", Redeem("V", "V", lots, 0.4), eng.ledger.signer_backend)


def redeem_of_lots_in_channel_escrow(eng, sessions):
    lots = lots_v_earned_from_its_own_tokens(eng)
    # V's treasury is homed at V, so opening a channel escrows those V tokens.
    eng.channels.open_channel(treasury_wallet_id("V"), "H", 10, 65)
    return make_transaction(70, "V", Redeem("V", "V", lots, 0.4), eng.ledger.signer_backend)


def attach_check_signed_by_a_roamer(eng, sessions):
    return make_transaction(70, "bob", AttachCheck("w-nope", "V", "H", True), eng.ledger.signer_backend)


def attach_check_naming_a_home_off_the_roster(eng, sessions):
    return make_transaction(70, "V", AttachCheck(sessions["bob"].active_wallet, "V", "bob", True),
                            eng.ledger.signer_backend)


def attach_check_of_an_unknown_wallet(eng, sessions):
    return make_transaction(70, "V", AttachCheck("w-nowhere", "V", "H", True), eng.ledger.signer_backend)


def attach_check_of_a_wallet_homed_elsewhere(eng, sessions):
    # alice's wallet is homed at H, not at the check's hmno V.
    return make_transaction(70, "H", AttachCheck(sessions["alice"].active_wallet, "H", "V", True),
                            eng.ledger.signer_backend)


def attach_check_accepted_without_an_agreement(eng, sessions):
    # V's treasury is homed at V, and no agreement lets H accept V's tokens.
    return make_transaction(70, "H", AttachCheck(treasury_wallet_id("V"), "H", "V", True), eng.ledger.signer_backend)


def attach_check_accepting_a_drained_wallet(eng, sessions):
    # 3 MB more of bob's traffic pays V all 25 of his tokens, which his close settles.
    bob = sessions["bob"]
    eng.session_traffic(bob, 3_000_000, 65)
    eng.detach(bob, 65)
    assert eng.bank.balance(bob.active_wallet, "H") == 0
    return make_transaction(70, "V", AttachCheck(bob.active_wallet, "V", "H", True), eng.ledger.signer_backend)


def attach_check_refusing_a_funded_wallet(eng, sessions):
    # alice still holds 15 H tokens, and the (H, V) agreement lets V accept them.
    alice = sessions["alice"].active_wallet
    assert eng.bank.balance(alice, "H") == 15
    return make_transaction(70, "V", AttachCheck(alice, "V", "H", False), eng.ledger.signer_backend)


def agreement_signed_by_the_visited_mno(eng, sessions):
    bad = {"model": "per_unit", "rate": -5}
    return make_transaction(70, "V", AgreementRegistration("H", "V", ("H",), bad), eng.ledger.signer_backend)


def second_agreement_for_a_pair(eng, sessions):
    return make_transaction(70, "H", AgreementRegistration("H", "V", ("H",), CHARGING), eng.ledger.signer_backend)


def agreement_naming_a_vmno_off_the_roster(eng, sessions):
    return make_transaction(70, "H", AgreementRegistration("H", "bob", ("H",), CHARGING), eng.ledger.signer_backend)


def agreement_with_a_negative_rate(eng, sessions):
    bad = {"model": "per_unit", "rate": -5}
    return make_transaction(70, "V", AgreementRegistration("V", "H", ("V",), bad), eng.ledger.signer_backend)


def agreement_with_a_string_rate(eng, sessions):
    bad = {"model": "per_unit", "rate": "0.04"}
    return make_transaction(70, "V", AgreementRegistration("V", "H", ("V",), bad), eng.ledger.signer_backend)


def issue_signed_by_an_unknown_actor(eng, sessions):
    # Genesis anchors no key of mallory's.
    return dataclasses.replace(issue_signed_by_another_mno(eng, sessions), signer="mallory")


def issue_by_an_unknown_actor_under_its_own_id(eng, sessions):
    # Its id is the digest of its own fields, so only the MAC check finds
    # that genesis anchors no key of mallory's.
    issue = Issue("H", sessions["alice"].active_wallet, 10)
    return ledger.Transaction(ledger.tx_digest(70, "mallory", issue), 70, "mallory", issue, bytes(32))


def issue_under_the_signature_of_another_tx(eng, sessions):
    honest = make_transaction(70, "H", Issue("H", sessions["bob"].active_wallet, 1), eng.ledger.signer_backend)
    return dataclasses.replace(honest, signature=eng.ledger.chain[1].txs[0].signature)


def resubmission_of_a_sealed_tx(eng, sessions):
    return eng.ledger.chain[1].txs[0]


FORGERIES = [
    (issue_signed_by_another_mno, "issue", "NotIssuer"),
    (issue_by_a_roamer_off_the_roster, "issue", "NotIssuer"),
    (issue_into_a_wallet_homed_elsewhere, "issue", "ForeignWallet"),
    (issue_of_no_tokens, "issue", "NonPositiveAmount"),
    (open_with_no_deposit, "channel_open", "ZeroDeposit"),
    (reopen_of_a_closed_channel, "channel_open", "PayloadRejected"),
    (open_naming_a_vmno_off_the_roster, "channel_open", "UnknownMno"),
    (open_with_a_short_hashlock, "channel_open", "PayloadRejected"),
    (open_expiring_at_its_own_timestamp, "channel_open", "PayloadRejected"),
    (close_of_a_channel_never_opened, "channel_close", "UnknownChannel"),
    (second_close_of_a_closed_channel, "channel_close", "AlreadyClosed"),
    (close_not_splitting_the_deposit, "channel_close", "PayloadRejected"),
    (close_paying_without_a_proof, "channel_close", "PayloadRejected"),
    (redeem_of_a_lot_the_roamer_holds, "redeem", "ProvenanceRejected"),
    (redeem_with_a_negative_fiat, "redeem", "PayloadRejected"),
    (redeem_with_a_bool_fiat, "redeem", "PayloadRejected"),
    (redeem_of_no_lots, "redeem", "PayloadRejected"),
    (redeem_at_a_price_not_agreed, "redeem", "PayloadRejected"),
    (redeem_signed_by_the_home_mno, "redeem", "PayloadRejected"),
    (redeem_naming_a_lot_twice, "redeem", "PayloadRejected"),
    (redeem_of_no_lots_at_the_price_of_none, "redeem", "PayloadRejected"),
    (redeem_with_a_bool_fiat_equal_to_the_agreed_price, "redeem", "PayloadRejected"),
    (redeem_of_burned_lots, "redeem", "AlreadyBurned"),
    (redeem_without_an_agreement, "redeem", "NoAgreement"),
    (redeem_of_lots_in_channel_escrow, "redeem", "InsufficientBalance"),
    (attach_check_signed_by_a_roamer, "attach", "PayloadRejected"),
    (attach_check_naming_a_home_off_the_roster, "attach", "UnknownMno"),
    (attach_check_of_an_unknown_wallet, "attach", "UnknownWallet"),
    (attach_check_of_a_wallet_homed_elsewhere, "attach", "ForeignWallet"),
    (attach_check_accepted_without_an_agreement, "attach", "NoAgreement"),
    (attach_check_accepting_a_drained_wallet, "attach", "NoTokens"),
    (attach_check_refusing_a_funded_wallet, "attach", "PayloadRejected"),
    (agreement_signed_by_the_visited_mno, "agreement", "PayloadRejected"),
    (second_agreement_for_a_pair, "agreement", "DuplicateAgreement"),
    (agreement_naming_a_vmno_off_the_roster, "agreement", "UnknownMno"),
    (agreement_with_a_negative_rate, "agreement", "PayloadRejected"),
    (agreement_with_a_string_rate, "agreement", "PayloadRejected"),
    (issue_signed_by_an_unknown_actor, "issue", "UnknownSigner"),
    (issue_by_an_unknown_actor_under_its_own_id, "issue", "UnknownSigner"),
    (issue_under_the_signature_of_another_tx, "issue", "BadSignature"),
    (resubmission_of_a_sealed_tx, "agreement", "DuplicateTx"),
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
    honest = make_transaction(90, "H", Issue("H", sessions["bob"].active_wallet, 1), eng.ledger.signer_backend)
    eng.ledger.pending.append(dataclasses.replace(honest, signature=bytes(32)))
    eng.ledger.seal_block(90)
    path = tmp_path / "ledger.jsonl"
    eng.ledger.save_jsonl(path)
    result = verify_ledger(path)
    assert not result.valid
    assert result.first_invalid_height == 2
    assert result.reason.startswith(f"{kind} tx rejected: {error}: ")


def live_verdict(forge) -> str:
    """The class name of the error a live submit of the forgery raises, or
    "accepted"."""
    eng, sessions = honest_engine()
    forged = forge(eng, sessions)
    try:
        eng.ledger.submit(forged)
    except Exception as exc:
        return type(exc).__name__
    return "accepted"


def rule_mutants(payload_cls):
    """``TokenBank.apply`` with one ``raise`` of its ``payload_cls`` branch
    replaced by ``pass``, once per raise, as (the raise's source, the mutant)."""
    test = f"isinstance(p, {payload_cls.__name__})"

    def branch_raises(tree):
        branch = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.If) and ast.unparse(node.test) == test)
        return [node for stmt in branch.body for node in ast.walk(stmt) if isinstance(node, ast.Raise)]

    return mutants(TokenBank.apply, branch_raises)


def surviving_rules(monkeypatch, mutants):
    """The rules whose mutant leaves every ``FORGERIES`` row's live verdict
    and error class as they are."""
    expected = [error for _forge, _kind, error in FORGERIES]
    survivors = []
    for rule, mutant in mutants:
        monkeypatch.setattr(TokenBank, "apply", mutant)
        if [live_verdict(forge) for forge, _kind, _error in FORGERIES] == expected:
            survivors.append(rule)
    return survivors


def test_every_redeem_rule_rejects_some_forgery(monkeypatch):
    """Each ``raise`` of the Redeem rules is load-bearing: with it replaced by
    ``pass``, some ``FORGERIES`` row is accepted live or fails with another
    error class."""
    mutants = list(rule_mutants(Redeem))
    assert len(mutants) >= 9  # the Redeem rules when this test was written
    assert surviving_rules(monkeypatch, mutants) == []


# The raises of each other branch of ``TokenBank.apply`` when this was written.
BRANCH_RULES = {AttachCheck: 5, Issue: 3, ChannelOpen: 5, ChannelClose: 4, AgreementRegistration: 4}


@pytest.mark.parametrize("payload_cls, rules", BRANCH_RULES.items(), ids=[c.__name__ for c in BRANCH_RULES])
def test_every_rule_of_a_branch_rejects_some_forgery(monkeypatch, payload_cls, rules):
    """As for Redeem: each ``raise`` of the branch is load-bearing."""
    mutants = list(rule_mutants(payload_cls))
    assert len(mutants) >= rules
    assert surviving_rules(monkeypatch, mutants) == []


@pytest.mark.parametrize("fiat", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "10**400"])
def test_redeem_of_a_fiat_no_float_holds_is_rejected_live(fiat):
    """No JSON number states it, so it never reaches a saved chain: the bank
    rejects it on submit, and the parse rejects its literal on load."""
    eng, _ = honest_engine()
    forged = make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), fiat), eng.ledger.signer_backend)
    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(PayloadRejected, match="fiat"):
        eng.ledger.submit(forged)
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state
    # The honest redeem of the same lots, at their agreed price, still goes through.
    eng.ledger.submit(make_transaction(70, "V", Redeem("V", "H", earned_lots(eng), 0.4), eng.ledger.signer_backend))


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


def seal_past_the_door(eng, tx, path):
    """Save the chain to ``path``, then seal ``tx`` as if a validator let it
    in, and add the block's line as ``json.dumps`` writes its record: the
    live writer writes only what passed ``tx_digest``."""
    eng.ledger.save_jsonl(path)
    eng.ledger.pending.append(tx)
    block = eng.ledger.seal_block(80)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record_of(block), separators=(",", ":")) + "\n")
    return block


@pytest.mark.parametrize("forge", MISTYPED.values(), ids=MISTYPED)
def test_mistyped_payload_is_a_parse_error_at_its_line(forge, tmp_path):
    """A live submit rejects it, leaving the ledger and the bank as they were."""
    eng, sessions = honest_engine()
    signer, payload = forge(sessions)
    mistyped = forged_tx(eng.ledger.signer_backend, 70, signer, payload)
    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(PayloadRejected, match="must be of type"):
        eng.ledger.submit(mistyped)
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state

    # Written past the live check, the loader rejects it at its line.
    path = tmp_path / "ledger.jsonl"
    block = seal_past_the_door(eng, mistyped, path)
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == block.height
    result = verify_ledger(path)
    assert not result.valid and result.first_invalid_height == block.height
    assert result.reason.startswith("parse error") and "must be of type" in result.reason


def issue_to_bob(eng, sessions, timestamp=70):
    return forged_tx(eng.ledger.signer_backend, timestamp, "H", Issue("H", sessions["bob"].active_wallet, 1))


# Txs with one of their own fields of another type than the loader reads,
# as id -> (that field, forge(eng, sessions) -> tx).  H signs each.
MISTYPED_TX = {
    "timestamp '70'": ("timestamp", lambda eng, s: issue_to_bob(eng, s, "70")),
    "timestamp 70.0": ("timestamp", lambda eng, s: issue_to_bob(eng, s, 70.0)),
    "timestamp True": ("timestamp", lambda eng, s: issue_to_bob(eng, s, True)),
    # Unhashable: the key registry raised a bare TypeError.
    "list signer": ("signer", lambda eng, s: dataclasses.replace(issue_to_bob(eng, s), signer=["H"])),
    "int signer": ("signer", lambda eng, s: dataclasses.replace(issue_to_bob(eng, s), signer=7)),
    # Payloads of no payload class raised a bare AttributeError.
    "None payload": ("payload", lambda eng, s: dataclasses.replace(issue_to_bob(eng, s), payload=None)),
    "dict payload": ("payload", lambda eng, s: dataclasses.replace(
        issue_to_bob(eng, s), payload={"kind": "issue"})),
    # hmac.compare_digest raised a bare TypeError.
    "hex text tx_id": ("tx_id", lambda eng, s: dataclasses.replace(
        tx := issue_to_bob(eng, s), tx_id=tx.tx_id.hex())),
    "hex text signature": ("signature", lambda eng, s: dataclasses.replace(
        tx := issue_to_bob(eng, s), signature=tx.signature.hex())),
}


@pytest.mark.parametrize("field, forge", MISTYPED_TX.values(), ids=MISTYPED_TX)
def test_mistyped_tx_field_is_rejected_live_and_at_its_line(field, forge, tmp_path):
    """A live submit rejects it before any digest, MAC or bank rule, naming
    the field and leaving the ledger and the bank as they were."""
    eng, sessions = honest_engine()
    mistyped = forge(eng, sessions)
    pending, state = list(eng.ledger.pending), bank_snapshot(eng.bank)
    with pytest.raises(PayloadRejected, match=f"^{field} must be of type"):
        eng.ledger.submit(mistyped)
    assert eng.ledger.pending == pending
    assert bank_snapshot(eng.bank) == state

    # Written past the live check, the loader rejects it at its line.  A
    # tx_id or signature that is not bytes has no ``hex()`` to write, and a
    # payload of no payload class no ``kind``: sealing raises, as the header
    # a block hash covers holds the tx root, for one tx its id; or writing
    # raises, as ``record_of`` does; and no line holds it.
    path = tmp_path / "ledger.jsonl"
    if field in ("tx_id", "signature", "payload"):
        with pytest.raises(AttributeError):
            seal_past_the_door(eng, mistyped, path)
        return
    block = seal_past_the_door(eng, mistyped, path)
    with pytest.raises(LedgerParseError, match=f"{field} must be") as err:
        load_blocks_jsonl(path)
    assert err.value.line == block.height
    result = verify_ledger(path)
    assert not result.valid and result.first_invalid_height == block.height


# Payload values no line can hold, as id -> (signer, payload): JSON states no
# int of more digits than ``str`` writes, no bytes, and no key but a str.
# The JSON writer raised a bare ValueError or TypeError on each.
UNWRITABLE = {
    "issue of 10**5000 tokens": lambda s: ("H", Issue("H", s["bob"].active_wallet, 10 ** 5000)),
    "charging rate bytes": lambda s: ("V", AgreementRegistration("V", "H", ("V",), {**CHARGING, "rate": b"x"})),
    "charging int key": lambda s: ("V", AgreementRegistration("V", "H", ("V",), {1: "x"})),
    "charging nested int key": lambda s: ("V", AgreementRegistration("V", "H", ("V",), {"a": [{2: 0}]})),
}


def ledger_state(eng):
    return list(eng.ledger.pending), dict(eng.ledger.tx_index), bank_snapshot(eng.bank)


@pytest.mark.parametrize("forge", UNWRITABLE.values(), ids=UNWRITABLE)
def test_unwritable_payload_is_rejected_before_any_digest(forge):
    """``append`` and ``submit`` raise PayloadRejected naming the field,
    leaving the ledger and the bank as they were."""
    eng, sessions = honest_engine()
    signer, payload = forge(sessions)
    state = ledger_state(eng)
    with pytest.raises(PayloadRejected, match="must be of type"):
        eng.ledger.append(70, signer, payload)
    with pytest.raises(PayloadRejected, match="must be of type"):
        eng.ledger.submit(dataclasses.replace(issue_to_bob(eng, sessions), signer=signer, payload=payload))
    assert ledger_state(eng) == state


def count_writers(monkeypatch) -> Counter:
    """Count the calls to each payload class's generated ``to_json``, to
    ``_tx_text``, and to ``json.JSONEncoder.iterencode``, which
    ``ledger._ENCODER.encode`` runs on every value but a str."""
    counts = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for cls in ledger._PAYLOAD_CLASSES:
        monkeypatch.setattr(cls, "to_json", counting("to_json", cls.to_json))
    monkeypatch.setattr(ledger, "_tx_text", counting("_tx_text", ledger._tx_text))
    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting("encode", json.JSONEncoder.iterencode))
    return counts


def renamed_close(eng, sessions):
    """bob's close, of a payload class that renames its kind."""
    return forged_tx(eng.ledger.signer_backend, 70, "bob", RenamedClose(sessions["bob"].channel, 0, 25, 0))


def test_a_renamed_kind_is_rejected_live_naming_kind():
    eng, sessions = honest_engine()
    tx = renamed_close(eng, sessions)
    state = ledger_state(eng)
    with pytest.raises(PayloadRejected, match="^kind must be of type channel_close, not 'channel_close_v2'$"):
        eng.ledger.append(tx.timestamp, tx.signer, tx.payload)
    with pytest.raises(PayloadRejected, match="^kind must be"):
        eng.ledger.submit(tx)
    assert ledger_state(eng) == state


def test_no_text_is_written_before_the_type_check(monkeypatch):
    """Each mistyped or unwritable tx, or one whose payload renames its kind,
    is rejected by ``append`` and by ``submit`` before any of its text is
    written."""
    eng, sessions = honest_engine()
    renamed = renamed_close(eng, sessions)
    submitted, appended = [renamed], [(renamed.timestamp, renamed.signer, renamed.payload)]
    for forge in MISTYPED.values():
        signer, payload = forge(sessions)
        submitted.append(forged_tx(eng.ledger.signer_backend, 70, signer, payload))
        appended.append((70, signer, payload))
    for field, forge in MISTYPED_TX.values():
        tx = forge(eng, sessions)
        submitted.append(tx)
        if field in ("timestamp", "signer", "payload"):
            appended.append((tx.timestamp, tx.signer, tx.payload))
    for forge in UNWRITABLE.values():
        signer, payload = forge(sessions)
        submitted.append(dataclasses.replace(issue_to_bob(eng, sessions), signer=signer, payload=payload))
        appended.append((70, signer, payload))
    state = ledger_state(eng)

    counts = count_writers(monkeypatch)
    for tx in submitted:
        with pytest.raises(PayloadRejected):
            eng.ledger.submit(tx)
    for args in appended:
        with pytest.raises(PayloadRejected):
            eng.ledger.append(*args)
    assert counts == {}
    assert ledger_state(eng) == state
    # The counters see each writer: an honest agreement writes a tuple and a dict by the encoder.
    eng.ledger.append(70, "V", AgreementRegistration("V", "H", ("V",), CHARGING))
    assert counts == {"to_json": 1, "_tx_text": 1, "encode": 2}


def as_tx(forge):
    """A ``MISTYPED`` row's forge as forge(eng, sessions) -> tx."""
    return lambda eng, sessions: forged_tx(eng.ledger.signer_backend, 70, *forge(sessions))


# Every row above, as (id, forge(eng, sessions) -> tx).
ROWS = [(f.__name__, f) for f, _kind, _error in FORGERIES] + [
    (name, as_tx(forge)) for name, forge in MISTYPED.items()] + [
    (name, forge) for name, (_field, forge) in MISTYPED_TX.items()]
# ``append`` signs what it builds, so these faults are ``submit``'s alone to reject.
SUBMIT_ONLY = {issue_under_the_signature_of_another_tx.__name__, "hex text tx_id", "hex text signature"}
SIGNED = [(name, forge) for name, forge in ROWS if name not in SUBMIT_ONLY]


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
        eng.ledger.submit(make_transaction(90, "H", issue, eng.ledger.signer_backend))
    assert ledger_state(eng) == state


def outcome(step) -> str:
    """The class name of the error ``step()`` raises, or "accepted"."""
    try:
        step()
    except Exception as exc:
        return type(exc).__name__
    return "accepted"


def ledger_verdict(forge, now=80) -> tuple:
    """What the live ledger does with the forgery: the outcome of submitting
    it, then of appending its timestamp, signer and payload, then of
    sealing the block it would join at ``now``."""
    eng, sessions = honest_engine()
    tx = forge(eng, sessions)
    return (outcome(lambda: eng.ledger.submit(tx)),
            outcome(lambda: eng.ledger.append(tx.timestamp, tx.signer, tx.payload)),
            outcome(lambda: eng.ledger.seal_block(now)))


# Every row above, sealed at 80, as (id, forge, seal time); then an honest
# tx sealed at a time no header holds, and a payload that renames its kind.
LEDGER_ROWS = [(name, forge, 80) for name, forge in ROWS] + [
    (f"sealed at {now!r}", issue_to_bob, now) for now in (2.5, True, "5")] + [
    ("renamed kind", renamed_close, 80)]
# The ledger's rules: the doors' type checks of a tx and of a block header,
# the signer check of the tx ``append`` builds, and the chain rules of
# submit and seal.
LEDGER_RULES = [(ledger, "_check_tx"), (ledger, "_check_header"), (ledger, "make_transaction"),
                (Ledger, "append"), (Ledger, "submit"), (Ledger, "seal_block")]


def test_every_ledger_rule_rejects_some_row(monkeypatch):
    """Each ``raise`` of the ledger's rules is load-bearing: with it replaced
    by ``pass``, some ``LEDGER_ROWS`` row gets another live verdict or
    error class."""
    def verdicts():
        return [ledger_verdict(forge, now) for _name, forge, now in LEDGER_ROWS]

    expected = verdicts()
    assert expected[-4:] == [("accepted", "DuplicateTx", "PayloadRejected")] * 3 + [
        ("PayloadRejected", "PayloadRejected", "EmptyPending")]
    survivors, rules = [], 0
    for owner, name in LEDGER_RULES:
        for rule, mutant in mutants(getattr(owner, name)):
            rules += 1
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, mutant)
                if verdicts() == expected:
                    survivors.append(f"{name}: {rule}")
    assert rules >= 11  # the ledger's raises when this test was written
    assert survivors == []


# --- the loader's proof of a tx id ---------------------------------------------


def proved(tx) -> bool:
    """Whether ``load_blocks_jsonl`` marked ``tx`` proved, so that ``submit``
    does not re-digest it."""
    return getattr(tx, "_proved", False)


def saved_chain_of_every_kind(tmp_path):
    """The honest engine's chain, with V's redeem of the lots it earned
    sealed at 70, saved: a chain holding a tx of every payload kind."""
    eng, _sessions = honest_engine()
    lots = earned_lots(eng)
    eng.ledger.append(65, "V", Redeem("V", "H", lots, agreed_price(eng, lots)))
    eng.ledger.seal_block(70)
    path = tmp_path / "ledger.jsonl"
    eng.ledger.save_jsonl(path)
    return eng, path


def loaded_txs(blocks):
    """(height, index, tx) of each tx of ``blocks``."""
    return [(height, i, tx) for height, block in enumerate(blocks) for i, tx in enumerate(block.txs)]


def with_tx(blocks, height, i, tx):
    """``blocks`` with the ``i``-th tx of the block at ``height`` replaced by ``tx``."""
    txs = blocks[height].txs
    return [*blocks[:height], dataclasses.replace(blocks[height], txs=(*txs[:i], tx, *txs[i + 1:])),
            *blocks[height + 1:]]


def test_the_loader_alone_proves_a_tx_and_no_copy_carries_the_proof(tmp_path):
    """Each loaded tx but the agreement is proved; no tx the live engine
    built is, and neither is a loaded tx passed through ``dataclasses.replace``,
    ``copy.copy``, ``copy.deepcopy`` or a ``pickle`` round trip."""
    eng, path = saved_chain_of_every_kind(tmp_path)
    blocks = load_blocks_jsonl(path)
    txs = [tx for _height, _i, tx in loaded_txs(blocks)]
    assert {tx.payload.kind: proved(tx) for tx in txs} == {
        "agreement": False, "issue": True, "attach": True, "channel_open": True, "channel_close": True,
        "redeem": True}
    assert not any(proved(tx) for tx in eng.ledger.all_txs())
    for tx in txs:
        for copied in (dataclasses.replace(tx), copy.copy(tx), copy.deepcopy(tx), pickle.loads(pickle.dumps(tx))):
            assert copied == tx and not proved(copied)
    assert not any(proved(tx) for block in copy.deepcopy(blocks) for tx in block.txs)
    assert verify_blocks(blocks)[0].valid


def test_a_loaded_tx_edited_after_the_load_is_rejected_at_its_height(tmp_path):
    """A loaded tx whose timestamp, or an issue whose amount, is edited
    through ``dataclasses.replace`` keeps its id and signature but is no
    longer proved: its replay fails at its height with BadSignature."""
    _eng, path = saved_chain_of_every_kind(tmp_path)
    blocks = load_blocks_jsonl(path)
    edits = [(height, i, dataclasses.replace(tx, timestamp=tx.timestamp + 1))
             for height, i, tx in loaded_txs(blocks)]
    edits += [(height, i, dataclasses.replace(tx, payload=dataclasses.replace(tx.payload, amount=tx.payload.amount + 1)))
              for height, i, tx in loaded_txs(blocks) if isinstance(tx.payload, Issue)]
    assert len(edits) > len(loaded_txs(blocks))
    for height, i, edited in edits:
        verdict, _bank = verify_blocks(with_tx(blocks, height, i, edited))
        assert (verdict.valid, verdict.first_invalid_height) == (False, height)
        assert verdict.reason == f"{edited.payload.kind} tx rejected: BadSignature: {edited.tx_id.hex()}"


def test_a_re_signed_wrong_tx_id_is_rejected_at_its_height(tmp_path):
    """A saved tx whose id is edited and re-signed under its signer's key,
    which genesis publishes, is not proved by the load, so its replay fails
    at its height with BadSignature."""
    _eng, path = saved_chain_of_every_kind(tmp_path)
    text = path.read_text()
    blocks = load_blocks_jsonl(path)
    signer = codec.KeyedMacSigner(blocks[0].keys)
    for height, _i, tx in loaded_txs(blocks):
        wrong_id = codec.digest(tx.tx_id)
        old = tx.to_json()
        assert text.count(old) == 1
        path.write_text(text.replace(old, dataclasses.replace(
            tx, tx_id=wrong_id, signature=signer.sign(tx.signer, wrong_id)).to_json()))
        result = verify_ledger(path)
        assert (result.valid, result.first_invalid_height) == (False, height)
        assert result.reason == f"{tx.payload.kind} tx rejected: BadSignature: {wrong_id.hex()}"


def test_a_loaded_agreement_edited_in_place_is_rejected(tmp_path):
    """An agreement's charging dict can be edited in place after the load,
    so the loader never proves an agreement, and its replay digests it."""
    _eng, path = saved_chain_of_every_kind(tmp_path)
    blocks = load_blocks_jsonl(path)
    [(height, agreement)] = [(height, tx) for height, _i, tx in loaded_txs(blocks)
                             if isinstance(tx.payload, AgreementRegistration)]
    agreement.payload.charging["rate"] *= 2
    verdict, _bank = verify_blocks(blocks)
    assert (verdict.valid, verdict.first_invalid_height) == (False, height)
    assert verdict.reason == f"agreement tx rejected: BadSignature: {agreement.tx_id.hex()}"


def test_a_loaded_list_fiat_edited_in_place_is_rejected(tmp_path):
    """A redeem's fiat may hold any JSON value, which the bank then rejects;
    a loaded list fiat can be edited in place, so its tx is not proved, and
    its replay digests it: the edit is a BadSignature, as before the load
    proved any id, where the unedited redeem is a PayloadRejected."""
    chain = Ledger(["H", "V"], {m: codec.derive_key(0, m) for m in ("H", "V")})
    chain.append(65, "V", Redeem("V", "H", ("lot",), [1.0]))
    chain.seal_block(70)
    path = tmp_path / "ledger.jsonl"
    chain.save_jsonl(path)
    [(height, _i, redeem)] = loaded_txs(load_blocks_jsonl(path))
    assert not proved(redeem)
    verdict, _bank = verify_blocks(load_blocks_jsonl(path))
    assert (verdict.valid, verdict.first_invalid_height) == (False, height)
    assert verdict.reason.startswith("redeem tx rejected: PayloadRejected: ")
    blocks = load_blocks_jsonl(path)
    blocks[height].txs[0].payload.fiat.append(2.0)
    verdict, _bank = verify_blocks(blocks)
    assert (verdict.valid, verdict.first_invalid_height) == (False, height)
    assert verdict.reason == f"redeem tx rejected: BadSignature: {redeem.tx_id.hex()}"
