"""Protocol state machine: attach, provisioning, sessions, detach, sweeps."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dice import codec
from dice.errors import (
    DuplicateAgreement,
    NoAgreement,
    NoTokens,
    UnknownMno,
    UnverifiableIssuance,
    WrongMode,
    WrongState,
)
from dice.harness import ScenarioConfig, run_scenario
from dice.ledger import QueryFilter
from dice.protocol import (
    ACTIVE,
    CHANNEL_OPEN,
    CONTRACTED,
    HOME,
    HR,
    LBO,
    PROVISIONED,
    SETTLED,
    DiceEngine,
)
from dice.tokenbank import TokenBank, TokenLot, LineageEntry

from helpers import bank_snapshot, run_session

CHARGING = {"model": "per_unit", "rate": 0.04}


def engine(roamers=("alice",), seed=11):
    return DiceEngine(["H", "V", "X"], list(roamers), seed=seed)


def ready_session(eng, mode=LBO, tokens=25, now=10):
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    wallet = eng.bank.create_identities("H", "alice", 1, [tokens], now)[0]
    session = eng.new_session("alice", wallet, "H", "V", mode, now)
    return session


def onchain_count(eng):
    return len(eng.ledger.pending) + sum(len(b.txs) for b in eng.ledger.chain)


def session_txs(eng, session):
    """The session's txs on the chain, pending ones included: its wallet's
    attach checks and its channel's open and close."""
    return [tx for tx in [*eng.ledger.all_txs(), *eng.ledger.pending]
            if getattr(tx.payload, "roamer_wallet", None) == session.active_wallet
            or session.channel is not None and getattr(tx.payload, "channel", None) == session.channel]


def proofs_accepted(eng, session):
    """The proofs the session paid: its channel's latest accepted seq."""
    latest = eng.channels.channel(session.channel).latest if session.channel else None
    return latest.seq if latest else 0


# --- agreements -----------------------------------------------------------------


def test_register_agreement_enables_attach():
    eng = engine()
    session = ready_session(eng)
    assert eng.attach_check(session, 10) is True
    assert session.state == CONTRACTED


def test_duplicate_agreement():
    eng = engine()
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    with pytest.raises(DuplicateAgreement):
        eng.register_agreement("H", "V", ["H"], CHARGING, 1)


def test_agreement_with_unknown_mno():
    eng = engine()
    with pytest.raises(UnknownMno):
        eng.register_agreement("H", "Z", ["H"], CHARGING, 0)


# --- attach check -----------------------------------------------------------------


def test_attach_records_exactly_one_onchain_tx():
    eng = engine()
    session = ready_session(eng)
    before = onchain_count(eng)
    eng.attach_check(session, 10)
    assert onchain_count(eng) - before == 1
    assert len(session_txs(eng, session)) == 1


def test_attach_without_agreement_is_refused_and_recorded():
    eng = engine()
    wallet = eng.bank.create_identities("H", "alice", 1, [25], 5)[0]
    session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
    with pytest.raises(NoAgreement):
        eng.attach_check(session, 5)
    assert session.state == HOME
    eng.ledger.seal_block(6)
    refusals = [tx for tx in eng.ledger.query("V", QueryFilter(kind="attach"))
                if not tx.payload.accepted]
    assert len(refusals) == 1


def test_attach_with_empty_wallet():
    eng = engine()
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    wallet = eng.bank.create_wallet("alice", "H")
    session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
    with pytest.raises(NoTokens):
        eng.attach_check(session, 5)


def test_attach_with_forged_offledger_lot():
    """A lot whose lineage root never hit the chain must be refused."""
    eng = engine()
    eng.register_agreement("H", "V", ["H"], CHARGING, 0)
    wallet = eng.bank.create_wallet("alice", "H")
    fake = TokenLot("lot-forged", "H", 25,
                    [LineageEntry(wallet, codec.sha256(b"never-submitted"))])
    eng.bank.lots[fake.lot_id] = fake
    eng.bank.wallets[wallet].lots.setdefault("H", {})[fake.lot_id] = fake
    session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
    with pytest.raises(UnverifiableIssuance):
        eng.attach_check(session, 5)


def test_attach_requires_home_state():
    eng = engine()
    session = ready_session(eng)
    eng.attach_check(session, 10)
    with pytest.raises(WrongState):
        eng.attach_check(session, 11)


# --- provisioning -----------------------------------------------------------------


def test_lbo_provisioning_transition():
    eng = engine()
    session = ready_session(eng, mode=LBO)
    eng.attach_check(session, 10)
    eng.provision_profile(session)
    assert session.state == PROVISIONED


def test_hr_mode_skips_provisioning():
    eng = engine()
    session = ready_session(eng, mode=HR)
    eng.attach_check(session, 10)
    with pytest.raises(WrongMode):
        eng.provision_profile(session)
    # HR opens the channel straight from Contracted.
    eng.open_session_channel(session, 25, 10)
    assert session.state == CHANNEL_OPEN


def test_provision_from_wrong_state():
    eng = engine()
    session = ready_session(eng, mode=LBO)
    with pytest.raises(WrongState):
        eng.provision_profile(session)  # still Home


# --- run_session / detach -----------------------------------------------------------


def full_attach(eng, session):
    eng.attach_check(session, session.clock)
    if session.mode == LBO:
        eng.provision_profile(session)


def test_run_session_full_visit_three_txs():
    eng = engine()
    session = ready_session(eng)
    full_attach(eng, session)
    assert run_session(eng, session, [(20, 2_500_000)], 25) is session
    assert proofs_accepted(eng, session) == 25
    assert session.state == ACTIVE
    eng.detach(session, 30)
    assert session.state == SETTLED
    # Attach + open + close: the protocol's three-transaction footprint.
    assert [tx.payload.kind for tx in session_txs(eng, session)] == ["attach", "channel_open", "channel_close"]
    assert eng.bank.balance(eng.bank.treasury("V"), "H") == 25


def test_silent_session_swept_still_three_txs():
    eng = engine()
    session = ready_session(eng)
    full_attach(eng, session)
    assert run_session(eng, session, [], 25) is session
    assert proofs_accepted(eng, session) == 0
    assert session.state == CHANNEL_OPEN
    swept = eng.timeout_sweep(session.clock + 2 * 86_400)
    assert swept == [session.channel]
    assert session.state == SETTLED
    assert [tx.payload.kind for tx in session_txs(eng, session)] == ["attach", "channel_open", "channel_close"]
    assert eng.bank.spendable(session.active_wallet, "H") == 25  # full refund


def test_trace_exceeding_deposit_reports_unserviced():
    eng = engine()
    session = ready_session(eng)
    full_attach(eng, session)
    run_session(eng, session, [(20, 3_000_000)], 25)
    assert proofs_accepted(eng, session) == 25
    assert eng.channels.channel(session.channel).unserviced_bytes == 500_000
    assert any(ev["event"] == "deposit_exhausted" for ev in session.events)


def test_detach_before_traffic_refunds():
    eng = engine()
    session = ready_session(eng)
    full_attach(eng, session)
    run_session(eng, session, [], 25)
    eng.detach(session, 40)
    ch = eng.channels.channel(session.channel)
    assert ch.closed.paid == 0 and ch.closed.refunded == 25


def test_detach_twice():
    eng = engine()
    session = ready_session(eng)
    full_attach(eng, session)
    run_session(eng, session, [(20, 200_000)], 25)
    eng.detach(session, 40)
    with pytest.raises(WrongState):
        eng.detach(session, 50)


def test_no_service_without_tokens_exhaustive():
    """Every op order on a NoTokens session fails before any traffic flows."""
    for op_order in (("traffic",), ("open", "traffic"), ("provision", "open", "traffic")):
        eng = engine()
        eng.register_agreement("H", "V", ["H"], CHARGING, 0)
        wallet = eng.bank.create_wallet("alice", "H")
        session = eng.new_session("alice", wallet, "H", "V", LBO, 5)
        with pytest.raises(NoTokens):
            eng.attach_check(session, 5)
        for op in op_order:
            with pytest.raises(WrongState):
                if op == "provision":
                    eng.provision_profile(session)
                elif op == "open":
                    eng.open_session_channel(session, 5, 6)
                else:
                    eng.session_traffic(session, 100_000, 6)
        assert session.channel is None and eng.channels.proofs_accepted == 0


# --- transition safety property -------------------------------------------------------

_LEGAL = {
    "home": {"checked"},
    "checked": {"contracted"},
    "contracted": {"provisioned", "channel_open"},
    "provisioned": {"channel_open"},
    "channel_open": {"active", "closing"},
    "active": {"closing"},
    "closing": {"settled"},
    "settled": set(),
}


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(st.sampled_from(["attach", "provision", "open", "traffic", "detach", "sweep"]),
                 max_size=12),
    mode=st.sampled_from([LBO, HR]),
)
def test_random_interleavings_never_reach_illegal_states(ops, mode):
    eng = engine(seed=13)
    session = ready_session(eng, mode=mode)
    now = 20
    observed = [session.state]
    for op in ops:
        now += 3600
        try:
            if op == "attach":
                eng.attach_check(session, now)
            elif op == "provision":
                eng.provision_profile(session)
            elif op == "open":
                eng.open_session_channel(session, 10, now)
            elif op == "traffic":
                eng.session_traffic(session, 250_000, now)
            elif op == "detach":
                eng.detach(session, now)
            elif op == "sweep":
                eng.timeout_sweep(now)
        except (WrongState, WrongMode):
            pass
        observed.append(session.state)
    for prev, cur in zip(observed, observed[1:]):
        assert cur == prev or cur in _LEGAL[prev] or (
            # attach and detach perform two hops in one call
            (prev, cur) in {("home", "contracted"), ("channel_open", "settled"),
                            ("active", "settled")}
        )
    if mode == HR:
        assert "provisioned" not in observed


# --- HR/LBO equivalence ---------------------------------------------------------------


def run_mode(mode):
    eng = engine(seed=21)
    session = ready_session(eng, mode=mode)
    full_attach(eng, session)
    run_session(eng, session, [(20, 1_234_567), (86_420, 900_000)], 25)
    eng.detach(session, 100_000)
    eng.ledger.seal_block(100_001)
    ch = eng.channels.channel(session.channel)
    return eng, session, ch


def test_hr_and_lbo_settle_identically():
    eng_l, s_l, ch_l = run_mode(LBO)
    eng_h, s_h, ch_h = run_mode(HR)
    assert ch_l.latest == ch_h.latest
    assert ch_l.closed == ch_h.closed
    assert len(session_txs(eng_l, s_l)) == len(session_txs(eng_h, s_h)) == 3
    kinds_l = sorted(tx.payload.kind for tx in eng_l.ledger.all_txs())
    kinds_h = sorted(tx.payload.kind for tx in eng_h.ledger.all_txs())
    assert kinds_l == kinds_h
    # Event logs differ only by the provisioning bookkeeping.
    ev_l = [e["event"] for e in s_l.events if e["event"] not in ("provisioned", "reprovision_home")]
    ev_h = [e["event"] for e in s_h.events]
    assert ev_l == ev_h
    assert any(e["event"] == "provisioned" for e in s_l.events)
    assert not any(e["event"] == "provisioned" for e in s_h.events)


REPLAY_SCENARIOS = {
    "lbo": dict(mode=LBO),
    "hr": dict(mode=HR, charging={"model": "parity"}),
    # A 3-token deposit against about 1MB of daily traffic runs out on
    # most channels that carry traffic.
    "deposits_run_out": dict(expected_visit_bytes=300_000),
}


def test_rebuilt_bank_matches_live_bank(tmp_path):
    eng, session, _ = run_mode(LBO)
    rebuilt = TokenBank.rebuild_from_ledger(eng.ledger)
    assert bank_snapshot(rebuilt) == bank_snapshot(eng.bank)

    for name, overrides in REPLAY_SCENARIOS.items():
        seen = []

        def replay_equals_live(live):
            seen.append(live)
            assert bank_snapshot(TokenBank.rebuild_from_ledger(live.ledger)) == bank_snapshot(live.bank)

        config = ScenarioConfig(seed=3, days=3, roamers_per_vmno_day=30_000, **overrides)
        run_scenario(config, tmp_path / name, on_seal=replay_equals_live)
        live = seen[-1]
        assert len(seen) > 2 and live.bank.burned_by, name
        if name == "deposits_run_out":
            metered = [ch for ch in live.channels.channels.values() if ch.bytes_total]
            assert sum(ch.unserviced_bytes > 0 for ch in metered) > len(metered) / 2


def test_finished_engine_is_freed_without_the_cycle_collector():
    """The engine holds no reference cycle (the ledger refers to its bank
    weakly), so it is freed as soon as the last reference goes."""
    eng, _session, _ch = run_mode(LBO)
    ledger = weakref.ref(eng.ledger)
    gc.disable()
    try:
        del eng
        assert ledger() is None
    finally:
        gc.enable()


def test_settled_lot_lineage_reads_back():
    """Happy path: issuance to the roamer, then close-transfer to the VMNO."""
    eng, session, ch = run_mode(LBO)
    lots = eng.bank.lots_of(eng.bank.treasury("V"), issuer="H")
    assert lots
    for lot in lots:
        assert len(lot.lineage) == 2
        assert lot.lineage[0].holder == session.active_wallet
        assert lot.lineage[1].holder == eng.bank.treasury("V")
        assert lot.lineage[1].tx_id == ch.close_tx
