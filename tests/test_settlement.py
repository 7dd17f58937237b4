"""Charging models, provenance validation and redemption."""

import dataclasses

import pytest

from dice import codec
from dice.errors import AlreadyBurned, InsufficientBalance, ProvenanceRejected
from dice.protocol import LBO, DiceEngine
from dice.settlement import (
    Fixed,
    Parity,
    PerUnit,
    RedemptionClaim,
    make_claim,
    model_from_dict,
    price,
    redeem,
    validate_provenance,
)
from dice.tokenbank import LineageEntry, TokenLot

from helpers import bank_snapshot, run_session

CHARGING = {"model": "per_unit", "rate": 0.04}


# --- pricing ---------------------------------------------------------------------


def test_per_unit_pricing():
    assert price(PerUnit(0.04), 0) == 0
    # Rate chosen so a 2.5MB visit (25 tokens) costs one euro.
    assert price(PerUnit(0.04), 25) == pytest.approx(1.00)


def test_fixed_pricing_ignores_volume():
    model = Fixed(1000, 0.2)
    for tokens in (0, 1, 99999):
        assert price(model, tokens) == pytest.approx(800)


def test_parity_pricing():
    # 1 coin = 1MB = 1 euro; tokens are 100KB each, so 10 tokens = 1 euro.
    assert price(Parity(), 10) == pytest.approx(1.0)
    assert price(Parity(), 25) == pytest.approx(2.5)


def test_price_rejects_negative_tokens():
    with pytest.raises(ValueError):
        price(PerUnit(0.04), -1)


def test_price_monotone_for_volume_models():
    for model in (PerUnit(0.04), Parity()):
        values = [price(model, t) for t in range(0, 50)]
        assert values == sorted(values)


def test_model_dict_roundtrip():
    specs = [{"model": "per_unit", "rate": 0.04}, {"model": "fixed", "flat": 1000.0, "discount": 0.2},
             {"model": "parity", "tokens_per_mb": 10, "euro_per_mb": 1.0}]
    for spec, model in zip(specs, (PerUnit(0.04), Fixed(1000, 0.2), Parity(10, 1.0))):
        read = model_from_dict(spec)
        assert read == model
        assert {"model": read.name, **dataclasses.asdict(read)} == spec


# --- fixtures: an honest settled visit ----------------------------------------------


def honest_engine(tokens=25, traffic=2_500_000):
    eng = DiceEngine(["H", "V", "W", "X"], ["alice"], seed=31)
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    wallet = eng.bank.create_identities("H", "alice", 1, [tokens], 5)[0]
    session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
    eng.attach_check(session, 5)
    eng.provision_profile(session)
    run_session(eng, session, [(10, traffic)], tokens)
    eng.detach(session, 50)
    eng.ledger.seal_block(60)
    return eng, session


def test_honest_path_is_accepted():
    eng, _ = honest_engine()
    claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert verdict.accepted


def test_redeem_burns_and_clears_fiat():
    eng, _ = honest_engine()
    claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
    assert claim.fiat_due == pytest.approx(1.00)
    tx_id = redeem(eng, claim, 100)
    # The Redeem tx is the one record of the fiat the home MNO owes the visited one.
    cleared = eng.ledger.get_tx(tx_id).payload
    assert (cleared.vmno, cleared.hmno) == ("V", "H")
    assert cleared.fiat == pytest.approx(1.00)
    assert eng.bank.balance(eng.bank.treasury("V"), "H") == 0
    assert eng.bank.supply_closure_ok()


def test_parity_redeems_one_euro_per_mb():
    eng, _ = honest_engine(tokens=10, traffic=1_000_000)
    claim = make_claim(eng.bank, Parity(), "V", "H")
    assert claim.fiat_due == pytest.approx(1.0)  # 10 tokens = 1MB = 1 euro


def test_double_redeem_is_rejected():
    eng, _ = honest_engine()
    claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
    redeem(eng, claim, 100)
    with pytest.raises(AlreadyBurned):
        redeem(eng, claim, 200)


def test_redeem_cannot_burn_tokens_in_channel_escrow():
    """A treasury that escrowed its earned tokens in a channel of its own
    cannot redeem them too, so the channel still closes cleanly."""
    eng = DiceEngine(["V"], ["alice"], seed=38)
    eng.register_agreement("V", "V", ["V"], CHARGING, 0)
    wallet = eng.bank.create_identities("V", "alice", 1, [25], 5)[0]
    session = eng.new_session("alice", wallet, "V", "V", LBO, 5)
    eng.attach_check(session, 5)
    eng.provision_profile(session)
    run_session(eng, session, [(10, 2_500_000)], 25)
    eng.detach(session, 50)
    treasury = eng.bank.treasury("V")
    channel = eng.channels.open_channel(treasury, "V", 25, 60)
    claim = make_claim(eng.bank, PerUnit(0.04), "V", "V")
    assert validate_provenance(eng.bank, eng.ledger, claim).accepted
    state = bank_snapshot(eng.bank)
    with pytest.raises(InsufficientBalance):
        redeem(eng, claim, 80)
    assert bank_snapshot(eng.bank) == state
    eng.channels.close_channel(channel, 90)
    assert eng.bank.supply_closure_ok() and eng.bank.locked_amount(treasury) == 0


# --- adversarial acquisition paths ----------------------------------------------------


def test_direct_transfer_is_not_service_payment():
    """Tokens pushed straight from a roamer wallet to the VMNO treasury."""
    eng = DiceEngine(["H", "V"], ["alice"], seed=32)
    wallet = eng.bank.create_identities("H", "alice", 1, [25], 5)[0]
    eng.ledger.seal_block(6)
    eng.bank.transfer(wallet, eng.bank.treasury("V"), "H", 25, codec.sha256(b"gift"))
    claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert not verdict.accepted
    assert verdict.reason == "not-service-payment"
    with pytest.raises(ProvenanceRejected):
        redeem(eng, claim, 100)


def test_forged_lineage_is_rejected():
    eng = DiceEngine(["H", "V"], ["alice"], seed=33)
    treasury = eng.bank.treasury("V")
    fake = TokenLot("lot-forged", "H", 25,
                    [LineageEntry("w-ghost", codec.sha256(b"nothing")),
                     LineageEntry(treasury, codec.sha256(b"also-nothing"))])
    eng.bank.lots[fake.lot_id] = fake
    eng.bank.wallets[treasury].lots.setdefault("H", {})[fake.lot_id] = fake
    claim = RedemptionClaim("V", "H", [fake.lot_id], 25, 1.0)
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert not verdict.accepted
    assert verdict.reason == "missing-issuance"


def test_wrong_issuer_is_rejected():
    """Claiming W-issued lots against H."""
    eng = DiceEngine(["H", "V", "W"], ["bob"], seed=34)
    eng.register_agreement("W", "V", ["W"], CHARGING, 0)
    wallet = eng.bank.create_identities("W", "bob", 1, [10], 5)[0]
    session = eng.new_session("bob", wallet, "W", "V", LBO, 5)
    eng.attach_check(session, 5)
    eng.provision_profile(session)
    run_session(eng, session, [(10, 1_000_000)], 10)
    eng.detach(session, 50)
    eng.ledger.seal_block(60)
    lot_ids = sorted(l.lot_id for l in eng.bank.lots_of(eng.bank.treasury("V"), issuer="W"))
    claim = RedemptionClaim("V", "H", lot_ids, 10, 0.4)
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert not verdict.accepted
    assert verdict.reason == "wrong-issuer"


def test_cross_vmno_relay_is_rejected():
    """V relays honestly earned tokens to W; W cannot redeem them."""
    eng = DiceEngine(["H", "V", "W"], ["alice"], seed=35)
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    wallet = eng.bank.create_identities("H", "alice", 1, [25], 5)[0]
    session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
    eng.attach_check(session, 5)
    eng.provision_profile(session)
    run_session(eng, session, [(10, 2_500_000)], 25)
    eng.detach(session, 50)
    eng.ledger.seal_block(60)
    close_tx = eng.channels.channel(session.channel).close_tx
    # Relay re-using the close tx id as the purported cause.
    eng.bank.transfer(eng.bank.treasury("V"), eng.bank.treasury("W"), "H", 25, close_tx)
    claim = make_claim(eng.bank, PerUnit(0.04), "W", "H")
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert not verdict.accepted
    assert verdict.reason == "not-service-payment"


def test_self_issue_is_rejected():
    """V mints its own tokens into its treasury and tries to cash them."""
    eng = DiceEngine(["H", "V"], [], seed=36)
    treasury = eng.bank.treasury("V")
    eng.bank.issue("V", treasury, 50, now=5)
    eng.ledger.seal_block(6)
    against_h = RedemptionClaim("V", "H", sorted(l.lot_id for l in eng.bank.lots_of(treasury, "V")),
                                50, 2.0)
    verdict = validate_provenance(eng.bank, eng.ledger, against_h)
    assert not verdict.accepted and verdict.reason == "wrong-issuer"
    against_self = RedemptionClaim("V", "V", against_h.lot_ids, 50, 2.0)
    verdict = validate_provenance(eng.bank, eng.ledger, against_self)
    assert not verdict.accepted and verdict.reason == "not-service-payment"


def test_claim_for_lots_not_held_is_rejected():
    # Partial spend: the unspent remainder stays with the roamer, and a
    # claim naming those lots is not redeemable by the VMNO.
    eng, session = honest_engine(tokens=25, traffic=1_000_000)
    roamer_lots = sorted(l.lot_id for l in eng.bank.lots_of(session.active_wallet, issuer="H"))
    assert roamer_lots
    claim = RedemptionClaim("V", "H", roamer_lots, 15, 1.0)
    verdict = validate_provenance(eng.bank, eng.ledger, claim)
    assert not verdict.accepted
    assert verdict.reason == "not-held-by-claimant"


def test_settlement_equivalence_per_unit():
    """Total fiat == rate x (proof count + rounding top-up tokens)."""
    eng = DiceEngine(["H", "V"], ["alice", "bob"], seed=37)
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    rate = 0.04
    for i, (roamer, nbytes) in enumerate([("alice", 1_250_000), ("bob", 400_000)]):
        wallet = eng.bank.create_identities("H", roamer, 1, [25], 5 + i)[0]
        session = eng.new_session(roamer, wallet, "H", "V", LBO, 5 + i)
        eng.attach_check(session, 5 + i)
        eng.provision_profile(session)
        run_session(eng, session, [(10 + i, nbytes)], 25)
        eng.detach(session, 50 + i)
    eng.ledger.seal_block(60)
    proofs = len(eng.channels.accepted_proofs)
    rounding_tokens = sum(
        1 for ch in eng.channels.channels.values()
        if ch.closed.paid and ch.closed.paid * 100_000 > ch.bytes_total - (ch.bytes_total % 100_000) and ch.bytes_total % 100_000
    )
    claim = make_claim(eng.bank, PerUnit(rate), "V", "H")
    # alice: 12 full blocks + 1 partial -> 13; bob: 4 full -> 4; total 17.
    assert proofs == 16
    assert rounding_tokens == 1
    assert claim.fiat_due == pytest.approx(rate * (proofs + rounding_tokens))
