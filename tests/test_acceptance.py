"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a couple of minutes.
"""

import json
import os
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from dice import codec
from dice.channel import BalanceProof, ChannelManager
from dice.errors import (
    BadPreimage,
    BadSignature,
    GapSeq,
    Overdraft,
    ProvenanceRejected,
    StaleProof,
)
from dice.harness import (
    ScenarioConfig,
    check_requirements,
    run_scenario,
    verify_ledger,
)
from dice.ledger import Issue, Ledger, make_transaction
from dice.protocol import LBO, DiceEngine
from dice.settlement import PerUnit, RedemptionClaim, make_claim, redeem, validate_provenance
from dice.tokenbank import LineageEntry, TokenBank, TokenLot
from dice.workload import WorkloadConfig, generate

from helpers import run_session


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# --- shared scenario runs ----------------------------------------------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Paper-calibrated default config, with a supply audit at every seal."""
    out = tmp_path_factory.mktemp("default_lbo")
    closure = []
    engines = []

    def audit(engine):
        closure.append(engine.bank.supply_closure_ok())
        engines.append(engine)

    config = ScenarioConfig()
    report = run_scenario(config, out, dump_proofs="proofs.jsonl", dump_events="events.jsonl", on_seal=audit)
    return {
        "config": config,
        "report": report,
        "out": out,
        "closure_per_seal": closure,
        "engine": engines[-1],
    }


@pytest.fixture(scope="module")
def hr_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_hr")
    engines = []
    config = ScenarioConfig(mode="hr")
    report = run_scenario(config, out, dump_events="events.jsonl", on_seal=lambda e: engines.append(e))
    return {"config": config, "report": report, "out": out, "engine": engines[-1]}


# --- 1: three-transaction rule -------------------------------------------------------


def test_criterion_01_three_tx_rule(tmp_path):
    with criterion(1, "three-tx rule over >=10^4 sessions"):
        t0 = time.time()
        config = ScenarioConfig(roamers_per_vmno_day=4_500_000, scale=0.001, days=28, seed=42)
        engines = []
        report = run_scenario(config, tmp_path, on_seal=lambda e: engines.append(e))
        engine = engines[-1]
        assert report.sessions_completed >= 10_000

        settled = [s for s in engine.sessions.values() if s.state == "settled"]
        assert len(settled) == report.sessions_completed

        # Recount from the chain: per settled roamer wallet, exactly one
        # attach, one open and one close of the opened channel.
        attach_by_wallet: Counter = Counter()
        open_by_wallet: Counter = Counter()
        channel_wallet: dict[str, str] = {}
        close_by_wallet: Counter = Counter()
        for tx in engine.ledger.all_txs():
            kind = tx.payload.kind
            if kind == "attach":
                attach_by_wallet[tx.payload.roamer_wallet] += 1
            elif kind == "channel_open":
                open_by_wallet[tx.payload.wallet] += 1
                channel_wallet[tx.payload.channel] = tx.payload.wallet
            elif kind == "channel_close":
                close_by_wallet[channel_wallet[tx.payload.channel]] += 1
        wallets = {s.active_wallet for s in settled}
        assert len(wallets) == len(settled)
        for w in wallets:
            assert attach_by_wallet[w] == 1
            assert open_by_wallet[w] == 1
            assert close_by_wallet[w] == 1
        elapsed = time.time() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"


# --- 2: off-chain arithmetic ----------------------------------------------------------


def test_criterion_02_offchain_arithmetic(default_run):
    with criterion(2, "10TB/day at 100KB -> 1e8 off-chain payments/day"):
        verdict = check_requirements(default_run["report"], visited_mno_daily_bytes=10 * 10**12)
        # Oracle: 10 x 10^12 / 10^5 = 10^8.
        assert verdict.daily_offchain_projected == pytest.approx(1e8, rel=0.02)


# --- 3: on-chain projection ------------------------------------------------------------


def test_criterion_03_onchain_projection(default_run):
    with criterion(3, "daily on-chain in [1e6, 1e7) and peak TPS < 20000"):
        verdict = check_requirements(default_run["report"])
        assert 1e6 <= verdict.daily_onchain_projected < 1e7
        assert verdict.projected_peak_tps < 20_000
        assert verdict.passed


# --- 4: channel conservation and supply closure ------------------------------------------


def test_criterion_04_channel_conservation(default_run):
    with criterion(4, "paid+refunded==deposit per channel; supply closure each seal"):
        engine = default_run["engine"]
        channels = engine.channels.channels.values()
        assert channels
        for ch in channels:
            assert ch.status == "closed"
            assert ch.closed.paid + ch.closed.refunded == ch.opened.deposit
        assert default_run["closure_per_seal"], "no blocks sealed"
        assert all(default_run["closure_per_seal"])
        assert engine.bank.supply_closure_ok()


# --- 5: provenance security ---------------------------------------------------------------


def _honest_visit(eng, roamer, hmno, vmno, tokens, nbytes, t0):
    wallet = eng.bank.create_identities(hmno, roamer, 1, [tokens], t0)[0]
    session = eng.new_session(roamer, wallet, hmno, vmno, LBO, t0)
    eng.attach_check(session, t0)
    eng.provision_profile(session)
    run_session(eng, session, [(t0 + 10, nbytes)], tokens)
    eng.detach(session, t0 + 100)
    return session


def test_criterion_05_provenance_security():
    with criterion(5, "all non-service acquisition paths rejected, honest accepted"):
        charging = {"model": "per_unit", "rate": 0.04}
        rejected = []
        accepted = []

        # Honest paths: full spend, partial spend, several sessions pooled.
        eng = DiceEngine(["H", "V", "W"], ["a1", "a2", "a3"], seed=51)
        eng.register_agreement("H", "V", ["H"], charging, 0)
        _honest_visit(eng, "a1", "H", "V", 25, 2_500_000, 10)
        _honest_visit(eng, "a2", "H", "V", 25, 1_000_000, 20)
        _honest_visit(eng, "a3", "H", "V", 25, 150_000, 30)
        eng.ledger.seal_block(500)
        claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
        accepted.append(validate_provenance(eng.bank, eng.ledger, claim).accepted)
        redeem(eng, claim, 600)  # must not raise
        accepted.append(True)

        # Attack 1: direct wallet transfer, no channel involved.
        eng = DiceEngine(["H", "V"], ["b1"], seed=52)
        w = eng.bank.create_identities("H", "b1", 1, [25], 5)[0]
        eng.ledger.seal_block(6)
        eng.bank.transfer(w, eng.bank.treasury("V"), "H", 25, codec.sha256(b"gift"))
        claim = make_claim(eng.bank, PerUnit(0.04), "V", "H")
        verdict = validate_provenance(eng.bank, eng.ledger, claim)
        rejected.append((not verdict.accepted, "direct-transfer", verdict.reason))

        # Attack 2: forged lineage whose root never hit the chain.
        eng = DiceEngine(["H", "V"], [], seed=53)
        treasury = eng.bank.treasury("V")
        fake = TokenLot("lot-x", "H", 10, [LineageEntry("w-ghost", codec.sha256(b"no")),
                                           LineageEntry(treasury, codec.sha256(b"no2"))])
        eng.bank.lots[fake.lot_id] = fake
        eng.bank.wallets[treasury].lots.setdefault("H", {})[fake.lot_id] = fake
        claim = RedemptionClaim("V", "H", [fake.lot_id], 10, 0.4)
        verdict = validate_provenance(eng.bank, eng.ledger, claim)
        rejected.append((not verdict.accepted, "forged-lineage", verdict.reason))

        # Attack 3: wrong issuer (claim W-issued lots against H).
        eng = DiceEngine(["H", "V", "W"], ["c1"], seed=54)
        eng.register_agreement("W", "V", ["W"], charging, 0)
        _honest_visit(eng, "c1", "W", "V", 10, 1_000_000, 10)
        eng.ledger.seal_block(500)
        lots = sorted(l.lot_id for l in eng.bank.lots_of(eng.bank.treasury("V"), issuer="W"))
        claim = RedemptionClaim("V", "H", lots, 10, 0.4)
        verdict = validate_provenance(eng.bank, eng.ledger, claim)
        rejected.append((not verdict.accepted, "wrong-issuer", verdict.reason))

        # Attack 4: cross-VMNO relay of honestly earned tokens.
        eng = DiceEngine(["H", "V", "W"], ["d1"], seed=55)
        eng.register_agreement("H", "V", ["H"], charging, 0)
        session = _honest_visit(eng, "d1", "H", "V", 25, 2_500_000, 10)
        eng.ledger.seal_block(500)
        close_tx = eng.channels.channel(session.channel).close_tx
        eng.bank.transfer(eng.bank.treasury("V"), eng.bank.treasury("W"), "H", 25, close_tx)
        claim = make_claim(eng.bank, PerUnit(0.04), "W", "H")
        verdict = validate_provenance(eng.bank, eng.ledger, claim)
        rejected.append((not verdict.accepted, "cross-vmno-relay", verdict.reason))

        # Attack 5: self-issued tokens, claimed against H and against self.
        eng = DiceEngine(["H", "V"], [], seed=56)
        treasury = eng.bank.treasury("V")
        eng.bank.issue("V", treasury, 50, now=5)
        eng.ledger.seal_block(6)
        lots = sorted(l.lot_id for l in eng.bank.lots_of(treasury, "V"))
        for hmno in ("H", "V"):
            claim = RedemptionClaim("V", hmno, lots, 50, 2.0)
            verdict = validate_provenance(eng.bank, eng.ledger, claim)
            rejected.append((not verdict.accepted, f"self-issue-vs-{hmno}", verdict.reason))
            with pytest.raises(ProvenanceRejected):
                redeem(eng, claim, 100)

        assert all(flag for flag, _, _ in rejected), rejected
        assert all(accepted)
        assert len(rejected) == 6 and len(accepted) == 2


# --- 6: tamper evidence ----------------------------------------------------------------


def test_criterion_06_tamper_evidence(tmp_path):
    with criterion(6, "byte-level fuzz of a 50-block ledger: 100% detection"):
        t0 = time.time()
        keys = {m: codec.derive_key(1, m) for m in ("A", "B", "C")}
        ledger = Ledger(["A", "B", "C"], keys)
        for n in range(49):
            ledger.submit(make_transaction(n, "A", Issue("A", f"w{n}", 5), ledger.signer_backend))
            ledger.seal_block(1000 + n)
        assert len(ledger.chain) == 50
        path = tmp_path / "ledger50.jsonl"
        ledger.save_jsonl(path)
        assert verify_ledger(path).valid

        raw = path.read_bytes()
        fd = os.open(path, os.O_RDWR)
        try:
            detected = height_correct = 0
            for pos in range(len(raw)):
                os.pwrite(fd, bytes([raw[pos] ^ 0xFF]), pos)
                result = verify_ledger(path)
                if not result.valid:
                    detected += 1
                    if result.first_invalid_height == raw[:pos].count(b"\n"):
                        height_correct += 1
                os.pwrite(fd, raw[pos:pos + 1], pos)
        finally:
            os.close(fd)
        assert detected == len(raw), f"missed {len(raw) - detected} of {len(raw)}"
        assert height_correct == len(raw)
        assert verify_ledger(path).valid  # restored intact
        elapsed = time.time() - t0
        assert elapsed < 30, f"took {elapsed:.1f}s"


# --- 7: proof monotonicity and replay protection ------------------------------------------


def test_criterion_07_proof_stream_properties():
    with criterion(7, ">=1e5 randomized proof submissions match the reference model"):
        actors = ["H", "V"] + [f"r{i}" for i in range(100)]
        keys = {a: codec.derive_key(7, a) for a in actors}
        ledger = Ledger(["H", "V"], keys)
        bank = TokenBank(ledger)
        mgr = ChannelManager(ledger, bank, preimage_seed=77)
        deposit = 30
        channels = []
        for i in range(100):
            w = bank.create_wallet(f"r{i}", "H")
            bank.issue("H", w, deposit, now=i)
            channels.append(mgr.open_channel(w, "V", deposit, now=i))

        rng = random.Random(4242)
        model: dict[str, tuple[int, int]] = {ch: (0, 0) for ch in channels}
        actor_of = {ch: mgr.channel(ch).roamer for ch in channels}
        cases = accepted_count = 0
        outcome_kinds: Counter = Counter()
        while cases < 100_000:
            ch = channels[rng.randrange(len(channels))]
            last_seq, last_cum = model[ch]
            r = rng.random()
            if r < 0.45:
                seq = last_seq + 1
                cum = last_cum + rng.randint(1, 3)
            elif r < 0.60:
                seq = rng.randint(0, last_seq)          # stale / replay
                cum = max(1, last_cum)
            elif r < 0.72:
                seq = last_seq + rng.randint(2, 5)      # gap
                cum = last_cum + 1
            elif r < 0.84:
                seq = last_seq + 1
                cum = deposit + rng.randint(1, 10)      # overdraft
            else:
                seq = last_seq + 1
                cum = rng.randint(0, max(0, last_cum))  # non-increasing
            sig_ok = rng.random() > 0.03
            good_pre = mgr.channel(ch).preimage
            pre_ok = rng.random() > 0.05
            preimage = (good_pre if pre_ok else b"\x00" * 32) if seq == 1 else None
            signer = actor_of[ch] if sig_ok else "V"
            sig = mgr.signer.sign(signer, codec.encode(["proof", ch, seq, cum]))
            proof = BalanceProof(ch, seq, cum, preimage, sig)

            model_valid = (
                sig_ok
                and seq == last_seq + 1
                and cum > last_cum
                and cum <= deposit
                and (seq != 1 or pre_ok)
            )
            try:
                mgr.receive_proof("V", proof)
                assert model_valid, (seq, cum, last_seq, last_cum)
                model[ch] = (seq, cum)
                accepted_count += 1
                outcome_kinds["accepted"] += 1
            except (StaleProof, GapSeq, Overdraft, BadPreimage, BadSignature) as exc:
                assert not model_valid, (type(exc).__name__, seq, cum, last_seq, last_cum)
                outcome_kinds[type(exc).__name__] += 1
            cases += 1

        assert cases >= 100_000
        assert accepted_count > 0
        # Every rejection class was actually exercised.
        for kind in ("StaleProof", "GapSeq", "Overdraft", "BadPreimage", "BadSignature"):
            assert outcome_kinds[kind] > 0, outcome_kinds
        # Accepted streams are strictly increasing per channel.
        per_channel: dict[str, tuple[int, int]] = {}
        for proof in mgr.accepted_proofs:
            prev = per_channel.get(proof.channel_id, (0, 0))
            assert proof.seq == prev[0] + 1
            assert proof.cumulative > prev[1]
            per_channel[proof.channel_id] = (proof.seq, proof.cumulative)


# --- 8: workload calibration ----------------------------------------------------------


def test_criterion_08_workload_calibration():
    with criterion(8, "default 28-day trace reproduces the published statistics"):
        trace = generate(WorkloadConfig())
        arrivals = trace.arrivals
        n = len(arrivals)
        silent = sum(a.silent for a in arrivals) / n
        stays = sorted(a.stay_days for a in arrivals)
        median_stay = stays[n // 2] if n % 2 else (stays[n // 2 - 1] + stays[n // 2]) / 2
        daily = sorted(b for rows in trace.traffic.values() for _, b in rows)
        m = len(daily)
        median_daily = daily[m // 2] if m % 2 else (daily[m // 2 - 1] + daily[m // 2]) / 2
        by_country: Counter = Counter(a.home_country for a in arrivals)
        bytes_by_mno: Counter = Counter()
        for a in arrivals:
            total = sum(b for _, b in trace.traffic.get(a.roamer, ()))
            if total:
                bytes_by_mno[a.hmno] += total
        top10_c = sum(c for _, c in by_country.most_common(10)) / n
        top10_m = sum(c for _, c in bytes_by_mno.most_common(10)) / sum(bytes_by_mno.values())

        assert abs(silent - 0.50) <= 0.03
        assert abs(median_stay - 2.5) <= 0.5
        assert abs(median_daily - 1_000_000) <= 200_000
        assert abs(top10_c - 0.60) <= 0.05
        assert abs(top10_m - 0.50) <= 0.05


# --- 9: determinism ---------------------------------------------------------------------


def test_criterion_09_determinism(default_run, tmp_path):
    with criterion(9, "byte-identical report.json and ledger.jsonl across runs"):
        rerun = tmp_path / "rerun"
        run_scenario(default_run["config"], rerun, dump_proofs="proofs.jsonl")
        for name in ("report.json", "ledger.jsonl", "settlement.csv", "proofs.jsonl"):
            a = (default_run["out"] / name).read_bytes()
            b = (rerun / name).read_bytes()
            assert a == b, f"{name} differs"


# --- 10: HR/LBO equivalence --------------------------------------------------------------


def test_criterion_10_hr_lbo_equivalence(default_run, hr_run):
    with criterion(10, "HR and LBO runs settle identically"):
        lbo, hr = default_run["report"], hr_run["report"]
        assert lbo.onchain_tx_by_kind == hr.onchain_tx_by_kind
        assert lbo.onchain_tx_total == hr.onchain_tx_total
        assert lbo.offchain_proofs_total == hr.offchain_proofs_total
        assert lbo.bytes_serviced == hr.bytes_serviced
        assert lbo.tokens_settled_by_pair == hr.tokens_settled_by_pair
        assert lbo.fiat_cleared_by_pair == hr.fiat_cleared_by_pair
        assert lbo.sessions_completed == hr.sessions_completed
        # The chains are byte-identical: provisioning never touches the ledger.
        ledger_lbo = (default_run["out"] / "ledger.jsonl").read_bytes()
        ledger_hr = (hr_run["out"] / "ledger.jsonl").read_bytes()
        assert ledger_lbo == ledger_hr
        # Session event logs differ only by the provisioning bookkeeping.
        eng_l, eng_h = default_run["engine"], hr_run["engine"]
        for sid, s_l in eng_l.sessions.items():
            s_h = eng_h.sessions[sid]
            ev_l = [e["event"] for e in s_l.events
                    if e["event"] not in ("provisioned", "reprovision_home")]
            ev_h = [e["event"] for e in s_h.events]
            assert ev_l == ev_h
        assert any(e["event"] == "provisioned"
                   for s in eng_l.sessions.values() for e in s.events)
        assert not any(e["event"] == "provisioned"
                       for s in eng_h.sessions.values() for e in s.events)
