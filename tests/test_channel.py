"""Payment channels: metering, proof validation, close and sweep semantics."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dice import codec
from dice.channel import DEFAULT_TIMELOCK_WINDOW, BalanceProof, ChannelManager, PaymentChannel
from dice.errors import (
    AlreadyClosed,
    BadPreimage,
    BadSignature,
    ChannelNotOpen,
    DiceError,
    Expired,
    GapSeq,
    InsufficientBalance,
    NonPositiveAmount,
    Overdraft,
    StaleProof,
    UnknownChannel,
    ZeroDeposit,
)
from dice.ledger import ChannelOpen, Ledger
from dice.tokenbank import TokenBank

from helpers import mutants

ACTORS = ["H", "V", "alice", "mallory"]
KEYS = {a: codec.derive_key(3, a) for a in ACTORS}

KB100 = 100_000
DAY = 86_400


def fresh(tokens=25):
    ledger = Ledger(["H", "V"], KEYS)
    bank = TokenBank(ledger)
    mgr = ChannelManager(ledger, bank, preimage_seed=5)
    wallet = bank.create_wallet("alice", "H")
    if tokens:
        bank.issue("H", wallet, tokens, now=0)
    return ledger, bank, mgr, wallet


def onchain_count(ledger):
    return len(ledger.pending) + sum(len(b.txs) for b in ledger.chain)


def test_open_locks_deposit_with_one_onchain_tx():
    ledger, bank, mgr, wallet = fresh(25)
    before = onchain_count(ledger)
    ch_id = mgr.open_channel(wallet, "V", 25, now=100)
    assert onchain_count(ledger) - before == 1
    assert bank.spendable(wallet, "H") == 0
    assert bank.locked_amount(wallet) == 25
    ch = mgr.channel(ch_id)
    assert ch.opened.deposit == 25 and ch.last_seq == 0 and ch.latest is None
    assert ch.opened.timelock_expiry == 100 + mgr.timelock_window
    assert ch.status == "open" and ch.closed is None


def test_open_zero_deposit():
    _, _, mgr, wallet = fresh(25)
    with pytest.raises(ZeroDeposit):
        mgr.open_channel(wallet, "V", 0, now=0)


def test_open_insufficient_balance():
    _, _, mgr, wallet = fresh(25)
    with pytest.raises(InsufficientBalance):
        mgr.open_channel(wallet, "V", 30, now=0)


def test_rejected_open_uses_no_channel_id_or_preimage():
    _, _, clean, clean_wallet = fresh(25)
    first = clean.channel(clean.open_channel(clean_wallet, "V", 10, now=0))
    _, _, mgr, wallet = fresh(25)
    with pytest.raises(ZeroDeposit):
        mgr.open_channel(wallet, "V", 0, now=0)
    with pytest.raises(InsufficientBalance):
        mgr.open_channel(wallet, "V", 30, now=0)
    ch = mgr.channel(mgr.open_channel(wallet, "V", 10, now=0))
    assert ch.opened.channel == first.opened.channel == "ch-0000000"
    assert ch.opened.hashlock == first.opened.hashlock
    second = mgr.channel(mgr.open_channel(wallet, "V", 10, now=0))
    assert second.opened.channel == "ch-0000001" and second.opened.hashlock != ch.opened.hashlock


def test_full_visit_pays_25_proofs_all_offchain():
    # 2,500,000 bytes / 100,000 bytes per block = 25 proofs exactly.
    ledger, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    before = onchain_count(ledger)
    proofs = mgr.pay_for_traffic(ch, 2_500_000, now=10)
    assert len(proofs) == 2_500_000 // KB100 == 25
    assert proofs[-1].cumulative == 25
    assert proofs[0].preimage is not None and proofs[1].preimage is None
    assert onchain_count(ledger) == before  # nothing touched the ledger
    assert mgr.channel(ch).unserviced_bytes == 0


def test_sub_block_traffic_emits_no_proof():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    assert mgr.pay_for_traffic(ch, 50_000, now=10) == []
    assert mgr.channel(ch).bytes_total == 50_000


@pytest.mark.parametrize("bad", [-900_000, -1, True, 1.5, "100000", None])
def test_traffic_amount_must_be_a_non_negative_int(bad):
    # A negative amount would rewind bytes_total under last_seq, and the
    # blocks served after it would go unpaid.
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    assert len(mgr.pay_for_traffic(ch, 1_000_000, now=10)) == 10
    chan = mgr.channel(ch)
    before = dataclasses.replace(chan)
    with pytest.raises(NonPositiveAmount):
        mgr.pay_for_traffic(ch, bad, now=20)
    assert chan == before
    assert mgr.pay_for_traffic(ch, 0, now=20) == []
    assert (chan.bytes_total, chan.last_seq) == (1_000_000, 10)
    assert [p.seq for p in mgr.pay_for_traffic(ch, 900_000, now=30)] == list(range(11, 20))


def test_proofs_never_reach_the_general_encoder(monkeypatch):
    """Both sides build each proof's bytes from the head the channel wrote
    once at its open, and ``b"%d,%d]"``, never through a JSON encoder."""
    _, _, mgr, wallet = fresh(40)
    ch = mgr.open_channel(wallet, "V", 40, now=0)
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: (calls.append(name), fn(*args, **kwargs))[1]

    monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
    monkeypatch.setattr(json.JSONEncoder, "encode", counted("encode", json.JSONEncoder.encode))
    monkeypatch.setattr(json.encoder, "encode_basestring_ascii",
                        counted("esc", json.encoder.encode_basestring_ascii))
    for now in range(1, 5):
        for p in mgr.pay_for_traffic(ch, 10 * KB100, now=now):
            mgr.receive_proof("V", p)
    assert mgr.proofs_accepted == 40
    assert calls == []
    # The wrappers see what a regression would call.
    assert json.dumps(["proof", ch, 1, 2]) == json.JSONEncoder().encode(["proof", ch, 1, 2])
    assert sorted(set(calls)) == ["dumps", "encode", "esc"]


def test_partial_block_rounds_up_at_close():
    # 150KB -> 1 full block proven, close charges ceil(150,000/100,000) = 2.
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    proofs = mgr.pay_for_traffic(ch, 150_000, now=10)
    assert len(proofs) == 1
    for p in proofs:
        mgr.receive_proof("V", p)
    mgr.close_channel(ch, now=20)
    chan = mgr.channel(ch)
    assert chan.closed.paid == -(-150_000 // KB100) == 2
    assert chan.closed.refunded == 23
    assert chan.status == "closed"
    assert bank.balance(bank.treasury("V"), "H") == 2


def test_exact_floor_accounting_when_rounding_disabled():
    ledger = Ledger(["H", "V"], KEYS)
    bank = TokenBank(ledger)
    mgr = ChannelManager(ledger, bank, round_up_final_block=False, preimage_seed=5)
    wallet = bank.create_wallet("alice", "H")
    bank.issue("H", wallet, 25, now=0)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 150_000, now=10):
        mgr.receive_proof("V", p)
    mgr.close_channel(ch, now=20)
    assert mgr.channel(ch).closed.paid == 1


def test_deposit_exhaustion_truncates_service():
    _, _, mgr, wallet = fresh(10)
    ch = mgr.open_channel(wallet, "V", 10, now=0)
    proofs = mgr.pay_for_traffic(ch, 1_500_000, now=10)
    chan = mgr.channel(ch)
    assert len(proofs) == 10  # capped at the deposit
    assert chan.bytes_total == 1_000_000
    assert chan.unserviced_bytes == 500_000
    # further traffic is all unserviced
    assert mgr.pay_for_traffic(ch, 100_000, now=20) == []
    assert chan.unserviced_bytes == 600_000


def test_pay_requires_open_unexpired_channel():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    with pytest.raises(Expired):
        mgr.pay_for_traffic(ch, KB100, now=mgr.timelock_window)
    mgr.close_channel(ch, now=10)
    with pytest.raises(ChannelNotOpen):
        mgr.pay_for_traffic(ch, KB100, now=20)
    with pytest.raises(UnknownChannel):
        mgr.pay_for_traffic("ch-none", KB100, now=20)


def test_closed_channel_takes_no_more_proofs():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    proof = emitted(mgr, ch, 2)[1]
    mgr.close_channel(ch, now=20)
    with pytest.raises(ChannelNotOpen):
        mgr.pay_for_traffic(ch, KB100, now=30)
    with pytest.raises(ChannelNotOpen):
        mgr.receive_proof("V", proof)


# --- proof validation -------------------------------------------------------------


def emitted(mgr, ch, blocks):
    return mgr.pay_for_traffic(ch, blocks * KB100, now=10)


def test_in_order_proofs_accept():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in emitted(mgr, ch, 3):
        mgr.receive_proof("V", p)
    latest = mgr.channel(ch).latest
    assert latest.seq == 3 and latest.cumulative == 3


def test_replayed_proof_is_stale():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    proofs = emitted(mgr, ch, 3)
    for p in proofs:
        mgr.receive_proof("V", p)
    with pytest.raises(StaleProof):
        mgr.receive_proof("V", proofs[1])


def test_gapped_proof_rejected():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    proofs = emitted(mgr, ch, 3)
    mgr.receive_proof("V", proofs[0])
    with pytest.raises(GapSeq):
        mgr.receive_proof("V", proofs[2])


def proof_message(ch_id, seq, cumulative) -> bytes:
    """The bytes a balance proof's MAC covers: its JSON list text."""
    return json.dumps(["proof", ch_id, seq, cumulative], separators=(",", ":")).encode()


def signed_proof(mgr, ch_id, seq, cumulative, preimage=None, signer="alice"):
    sig = mgr.signer.sign(signer, proof_message(ch_id, seq, cumulative))
    return BalanceProof(ch_id, seq, cumulative, preimage, sig)


@pytest.mark.parametrize("field", ["seq", "cumulative"])
@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_proof_fields_must_be_exact_ints(field, bad):
    """A value that equals or reads as 1 in the place of a seq-1 proof's seq
    or cumulative carries no valid MAC, and changes nothing."""
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    (proof,) = emitted(mgr, ch, 1)
    with pytest.raises(DiceError):
        mgr.receive_proof("V", dataclasses.replace(proof, **{field: bad}))
    assert mgr.channel(ch).latest is None
    mgr.receive_proof("V", proof)
    assert mgr.channel(ch).latest == proof


def test_over_deposit_proof_rejected():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in emitted(mgr, ch, 25):
        mgr.receive_proof("V", p)
    overdraft = signed_proof(mgr, ch, 26, 26)
    with pytest.raises(Overdraft):
        mgr.receive_proof("V", overdraft)


def test_bad_signature_rejected():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    p = emitted(mgr, ch, 1)[0]
    forged = dataclasses.replace(p, signature=bytes(32))
    with pytest.raises(BadSignature):
        mgr.receive_proof("V", forged)
    mallory = signed_proof(mgr, ch, 1, 1, preimage=b"\x00" * 32, signer="mallory")
    with pytest.raises(BadSignature):
        mgr.receive_proof("V", mallory)


def test_bad_preimage_rejected():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    wrong = signed_proof(mgr, ch, 1, 1, preimage=b"\x00" * 32)
    with pytest.raises(BadPreimage):
        mgr.receive_proof("V", wrong)
    missing = signed_proof(mgr, ch, 1, 1, preimage=None)
    with pytest.raises(BadPreimage):
        mgr.receive_proof("V", missing)


def test_proof_cannot_move_between_channels():
    # One roamer, two open channels to the same VMNO: the bytes each proof
    # signs name its channel's id, so a proof signed for A is no proof for B.
    _, _, mgr, wallet = fresh(25)
    a = mgr.open_channel(wallet, "V", 10, now=0)
    b = mgr.open_channel(wallet, "V", 10, now=0)
    (proof_a,) = emitted(mgr, a, 1)
    moved = dataclasses.replace(proof_a, channel_id=b, preimage=mgr.channel(b).preimage)
    with pytest.raises(BadSignature):
        mgr.receive_proof("V", moved)
    with pytest.raises(UnknownChannel):
        mgr.receive_proof("V", dataclasses.replace(proof_a, channel_id="ch-none"))
    (proof_b,) = emitted(mgr, b, 1)
    mgr.receive_proof("V", proof_b)
    mgr.receive_proof("V", proof_a)
    assert mgr.channel(a).latest == proof_a and mgr.channel(b).latest == proof_b


def test_receive_proof_contract():
    """Each rejection of ``receive_proof``, its class and message, in the order
    the rules run (a case that breaks two rules shows which one is checked
    first); a rejected proof changes no channel's latest proof and no dump.
    Then the roamer side: a channel paid over several calls reveals the
    preimage on seq 1 only, and ``last_seq`` counts the blocks paid."""
    _, _, mgr, wallet = fresh(25)
    paid = mgr.open_channel(wallet, "V", 10, now=0)     # two proofs accepted
    unpaid = mgr.open_channel(wallet, "V", 10, now=0)   # none yet
    closed = mgr.open_channel(wallet, "V", 5, now=0)
    for p in emitted(mgr, paid, 2) + emitted(mgr, closed, 1):
        mgr.receive_proof("V", p)
    mgr.close_channel(closed, now=20)
    next_proof = signed_proof(mgr, paid, 3, 3)
    zeros = b"\x00" * 32
    cases = [
        ("unknown channel", "V", dataclasses.replace(next_proof, channel_id="ch-none"),
         UnknownChannel, "ch-none"),
        ("wrong VMNO", "H", next_proof, ChannelNotOpen, paid),
        ("wrong VMNO before bad signature", "H", dataclasses.replace(next_proof, signature=zeros),
         ChannelNotOpen, paid),
        ("closed channel", "V", signed_proof(mgr, closed, 2, 2), ChannelNotOpen, closed),
        ("bad signature", "V", dataclasses.replace(next_proof, signature=zeros), BadSignature, "proof seq 3"),
        ("bad signature before stale seq", "V", signed_proof(mgr, paid, 2, 2, signer="mallory"),
         BadSignature, "proof seq 2"),
        ("stale seq", "V", signed_proof(mgr, paid, 2, 2), StaleProof, "seq 2 <= 2"),
        ("stale seq before flat cumulative", "V", signed_proof(mgr, paid, 1, 1), StaleProof, "seq 1 <= 2"),
        ("gap", "V", signed_proof(mgr, paid, 5, 5), GapSeq, "seq 5, expected 3"),
        ("gap before overdraft", "V", signed_proof(mgr, paid, 4, 11), GapSeq, "seq 4, expected 3"),
        ("overdraft", "V", signed_proof(mgr, paid, 3, 11), Overdraft, "cumulative 11 > deposit 10"),
        ("cumulative not increasing", "V", signed_proof(mgr, paid, 3, 2), StaleProof,
         "cumulative 2 does not increase"),
        ("flat cumulative before bad preimage", "V", signed_proof(mgr, unpaid, 1, 0, preimage=zeros),
         StaleProof, "cumulative 0 does not increase"),
        ("missing preimage", "V", signed_proof(mgr, unpaid, 1, 1), BadPreimage, unpaid),
        ("bad preimage", "V", signed_proof(mgr, unpaid, 1, 1, preimage=zeros), BadPreimage, unpaid),
        ("another channel's preimage", "V",
         signed_proof(mgr, unpaid, 1, 1, preimage=mgr.channel(paid).preimage), BadPreimage, unpaid),
    ]
    latest = {cid: ch.latest for cid, ch in mgr.channels.items()}
    accepted = list(mgr.accepted_proofs)
    for what, vmno, proof, error, message in cases:
        with pytest.raises(DiceError) as caught:
            mgr.receive_proof(vmno, proof)
        assert (type(caught.value), str(caught.value)) == (error, message), what
        assert all(mgr.channels[cid].latest is kept for cid, kept in latest.items()), what
        assert mgr.accepted_proofs == accepted, what
    mgr.receive_proof("V", next_proof)

    chan = mgr.channel(unpaid)
    calls = [(50_000, [], 0), (150_000, [1, 2], 2), (0, [], 2), (20_000, [], 2), (330_000, [3, 4, 5], 5)]
    for nbytes, seqs, last_seq in calls:
        proofs = mgr.pay_for_traffic(unpaid, nbytes, now=30)
        assert [(p.seq, p.cumulative) for p in proofs] == [(s, s) for s in seqs]
        assert [p.preimage for p in proofs] == [chan.preimage if s == 1 else None for s in seqs]
        assert chan.last_seq == last_seq
        for p in proofs:
            mgr.receive_proof("V", p)
    assert chan.latest.seq == chan.last_seq == 5


def proof_case_channels():
    """A manager and its channels by role: two proofs accepted on ``paid``,
    none on ``unpaid``, one on ``closed`` before its close; deposits 10, 10
    and 5."""
    _, _, mgr, wallet = fresh(25)
    channels = {role: mgr.open_channel(wallet, "V", deposit, now=0)
                for role, deposit in (("paid", 10), ("unpaid", 10), ("closed", 5))}
    for p in emitted(mgr, channels["paid"], 2) + emitted(mgr, channels["closed"], 1):
        mgr.receive_proof("V", p)
    mgr.close_channel(channels["closed"], now=20)
    return mgr, channels


def receive(role, seq, cumulative, vmno="V", edit=lambda proof: proof, **signed):
    """A step: ``vmno`` receives the proof of (seq, cumulative) on the
    channel of ``role`` (or of that id), signed by its roamer, then ``edit``ed."""
    return lambda mgr, channels: mgr.receive_proof(vmno, edit(signed_proof(
        mgr, channels.get(role, role), seq, cumulative, **signed)))


def pay(role, nbytes, now=30):
    """A step: the roamer of the channel of ``role`` pays for ``nbytes`` at ``now``."""
    return lambda mgr, channels: mgr.pay_for_traffic(channels[role], nbytes, now)


# The off-chain cases of the criterion-7 proof stream, and the roamer side's
# input and channel checks, as id -> (verdict, step(mgr, channels)).  A
# step's verdict is the class name of the error it raises, or "accepted".
PROOF_CASES = {
    "next proof": ("accepted", receive("paid", 3, 3)),
    "stale": ("StaleProof", receive("paid", 2, 3)),
    "gap": ("GapSeq", receive("paid", 5, 5)),
    "overdraft": ("Overdraft", receive("paid", 3, 11)),
    "non-increasing": ("StaleProof", receive("paid", 3, 2)),
    "bad MAC": ("BadSignature", receive("paid", 3, 3, signer="mallory")),
    "bad preimage": ("BadPreimage", receive("unpaid", 1, 1, preimage=b"\x00" * 32)),
    "wrong VMNO": ("ChannelNotOpen", receive("paid", 3, 3, vmno="H")),
    "closed": ("ChannelNotOpen", receive("closed", 2, 2)),
    "unknown": ("UnknownChannel", receive("ch-none", 1, 1)),
    # Its MAC is of seq 3, which ``b"%d" % 3.0`` writes too.
    "non-int seq": ("BadSignature", receive("paid", 3, 3, edit=lambda p: dataclasses.replace(p, seq=3.0))),
    # Each field's exact type is checked before it is looked up or hashed.
    "list channel id": ("UnknownChannel", receive(
        "paid", 3, 3, edit=lambda p: dataclasses.replace(p, channel_id=[p.channel_id]))),
    "str signature": ("BadSignature", receive(
        "paid", 3, 3, edit=lambda p: dataclasses.replace(p, signature=p.signature.hex()))),
    "no signature": ("BadSignature", receive("paid", 3, 3, edit=lambda p: dataclasses.replace(p, signature=None))),
    "str preimage": ("BadPreimage", receive("unpaid", 1, 1, preimage="00" * 32)),
    "bytearray preimage": ("BadPreimage", lambda mgr, channels: mgr.receive_proof("V", signed_proof(
        mgr, channels["unpaid"], 1, 1, preimage=bytearray(mgr.channel(channels["unpaid"]).preimage)))),
    "paid traffic": ("accepted", pay("unpaid", KB100)),
    "bad byte count": ("NonPositiveAmount", pay("paid", -1)),
    "traffic on a closed channel": ("ChannelNotOpen", pay("closed", KB100)),
    # Each channel opened at 0, so its timelock expires at the window's end.
    "traffic past the timelock": ("Expired", pay("paid", KB100, now=DEFAULT_TIMELOCK_WINDOW)),
}


def proof_verdicts() -> dict:
    verdicts = {}
    for name, (_verdict, step) in PROOF_CASES.items():
        mgr, channels = proof_case_channels()
        try:
            step(mgr, channels)
        except Exception as exc:
            verdicts[name] = type(exc).__name__
        else:
            verdicts[name] = "accepted"
    return verdicts


def test_every_off_chain_rule_rejects_some_proof_case(monkeypatch):
    """Each ``raise`` of ``receive_proof`` and ``pay_for_traffic`` is
    load-bearing: with it replaced by ``pass``, some ``PROOF_CASES`` row gets
    another verdict or error class."""
    expected = {name: verdict for name, (verdict, _step) in PROOF_CASES.items()}
    assert proof_verdicts() == expected
    survivors, rules = [], 0
    for name in ("receive_proof", "pay_for_traffic"):
        for rule, mutant in mutants(getattr(ChannelManager, name)):
            rules += 1
            with monkeypatch.context() as patch:
                patch.setattr(ChannelManager, name, mutant)
                if proof_verdicts() == expected:
                    survivors.append(f"{name}: {rule}")
    assert rules >= 12  # the off-chain raises when this test was written
    assert survivors == []


long_ints = st.integers(min_value=10 ** 255, max_value=10 ** 300)


class RecordingSigner:
    """Passes sign and verify through to ``signer`` and keeps each message."""

    def __init__(self, signer):
        self.signer, self.messages = signer, []

    def sign(self, actor, message):
        self.messages.append(message)
        return self.signer.sign(actor, message)

    def verify(self, actor, message, signature):
        self.messages.append(message)
        return self.signer.verify(actor, message, signature)


@given(
    st.text() | st.text(alphabet="é€𝄞", min_size=86, max_size=120),
    st.integers() | long_ints | long_ints.map(lambda n: -n),
    st.integers() | long_ints,
)
@example("ch-0000001", 1, 1)
@example('"\\\x00é', 0, -1)
@example("ch-%d%%", 1, 1)
def test_both_sides_mac_the_canonical_encoding(channel_id, seq, cumulative):
    # Escaped and non-ASCII channel ids, ids holding % (which the proof
    # format doubles), and ints of hundreds of digits.
    _, _, mgr, _ = fresh(0)
    mgr.signer = recorder = RecordingSigner(mgr.signer)
    preimage = b"\x01" * 32
    opened = ChannelOpen(channel_id, "w", "V", 10 ** 302, codec.digest(preimage), 1)
    ch = mgr.channels[channel_id] = PaymentChannel(opened, b"", "alice", 0, preimage)
    # Roamer side: its next proof pays block |seq| + 1, as seq and cumulative.
    paid = abs(seq) + 1
    ch.bytes_total = (paid - 1) * KB100
    (emitted_proof,) = mgr.pay_for_traffic(channel_id, KB100, now=0)
    # VMNO side: any seq and cumulative, signed over their JSON text; the
    # checks after the signature may reject them.
    signature = recorder.signer.sign("alice", proof_message(channel_id, seq, cumulative))
    try:
        mgr.receive_proof("V", BalanceProof(channel_id, seq, cumulative, preimage, signature))
    except (StaleProof, GapSeq, Overdraft):
        pass
    pairs = [(paid, paid), (seq, cumulative)]
    assert recorder.messages == [proof_message(channel_id, *pair) for pair in pairs]
    assert [json.loads(message) for message in recorder.messages] == [["proof", channel_id, *pair] for pair in pairs]
    assert emitted_proof.signature == recorder.signer.sign("alice", recorder.messages[0])


def test_proof_signed_over_its_digest_is_rejected():
    # A MAC over the SHA-256 of the proof's bytes is no signature of them.
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    preimage = mgr.channel(ch).preimage
    over_digest = mgr.signer.sign("alice", codec.digest(proof_message(ch, 1, 1)))
    with pytest.raises(BadSignature):
        mgr.receive_proof("V", BalanceProof(ch, 1, 1, preimage, over_digest))
    mgr.receive_proof("V", signed_proof(mgr, ch, 1, 1, preimage=preimage))
    assert mgr.proofs_accepted == 1


def test_non_increasing_cumulative_rejected():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in emitted(mgr, ch, 2):
        mgr.receive_proof("V", p)
    flat = signed_proof(mgr, ch, 3, 2)
    with pytest.raises(StaleProof):
        mgr.receive_proof("V", flat)


# --- close ------------------------------------------------------------------------


def test_close_conservation_full_spend():
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 2_500_000, now=10):
        mgr.receive_proof("V", p)
    mgr.close_channel(ch, now=20)
    chan = mgr.channel(ch)
    assert chan.closed.paid == 25 and chan.closed.refunded == 0
    assert chan.closed.paid + chan.closed.refunded == chan.opened.deposit
    assert bank.balance(bank.treasury("V"), "H") == 25
    assert bank.spendable(wallet, "H") == 0


def test_silent_close_refunds_everything():
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    mgr.close_channel(ch, now=20)
    chan = mgr.channel(ch)
    assert chan.closed.paid == 0 and chan.closed.refunded == 25
    assert bank.spendable(wallet, "H") == 25


def test_double_close():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    mgr.close_channel(ch, now=20)
    with pytest.raises(AlreadyClosed):
        mgr.close_channel(ch, now=30)


def test_exactly_two_onchain_txs_per_channel():
    ledger, _, mgr, wallet = fresh(25)
    base = onchain_count(ledger)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 1_200_000, now=10):
        mgr.receive_proof("V", p)
    mgr.pay_for_traffic(ch, 700_000, now=20)
    mgr.close_channel(ch, now=30)
    assert onchain_count(ledger) - base == 2


def test_unidirectional_payments_never_reach_roamer_before_close():
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 1_000_000, now=10):
        mgr.receive_proof("V", p)
        assert bank.spendable(wallet, "H") == 0
        assert bank.balance(wallet, "H") == 25  # still escrowed, not moved
    mgr.close_channel(ch, now=20)
    assert bank.balance(wallet, "H") == 15


# --- timeout sweep -----------------------------------------------------------------


def test_sweep_closes_idle_channel_with_latest_proof():
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 700_000, now=1000):
        mgr.receive_proof("V", p)
    # idle for 25h
    closed = mgr.timeout_sweep(now=1000 + 25 * 3600)
    assert closed == [ch]
    assert mgr.channel(ch).closed.paid == 7
    assert bank.balance(bank.treasury("V"), "H") == 7


def test_sweep_leaves_recently_active_channel():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 700_000, now=1000):
        mgr.receive_proof("V", p)
    assert mgr.timeout_sweep(now=1000 + 23 * 3600) == []
    assert mgr.channel(ch).status == "open"


def test_sweep_refunds_expired_unrevealed_channel():
    _, bank, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    mgr.pay_for_traffic(ch, 50_000, now=10)  # some traffic, no proof, no preimage
    closed = mgr.timeout_sweep(now=mgr.timelock_window + 1)
    assert closed == [ch]
    chan = mgr.channel(ch)
    assert chan.closed.paid == 0 and chan.closed.refunded == 25
    assert bank.spendable(wallet, "H") == 25


def test_sweep_window_boundary():
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    for p in mgr.pay_for_traffic(ch, 100_000, now=0):
        mgr.receive_proof("V", p)
    assert mgr.timeout_sweep(now=DAY - 1) == []
    assert mgr.timeout_sweep(now=DAY) == [ch]  # >= window closes


# --- property: monotonicity over randomized streams ----------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=40))
def test_accepted_pairs_strictly_increase(stream):
    """Whatever (seq, cumulative) garbage arrives, the accepted sequence is
    strictly increasing in both coordinates and never exceeds the deposit."""
    _, _, mgr, wallet = fresh(25)
    ch = mgr.open_channel(wallet, "V", 25, now=0)
    preimage = mgr.channel(ch).preimage
    accepted = []
    for seq, cumulative in stream:
        proof = signed_proof(mgr, ch, seq, cumulative,
                             preimage=preimage if seq == 1 else None)
        try:
            mgr.receive_proof("V", proof)
            accepted.append((seq, cumulative))
        except (StaleProof, GapSeq, Overdraft, BadPreimage, BadSignature):
            pass
    for (s1, c1), (s2, c2) in zip(accepted, accepted[1:]):
        assert s2 == s1 + 1 and c2 > c1
    assert all(c <= 25 for _, c in accepted)
    assert all(s >= 1 for s, _ in accepted)
