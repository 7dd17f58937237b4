"""Work per unit on the golden config, counted by wrapping codec, ledger and
channel entry points from the test: tx digests, payload type checks, tx
text builds, MAC signs, MAC verifies and proof-message builds per on-chain
tx and per off-chain proof, live and on replay; keyed MAC states per actor;
header type checks per block, live and on replay; header digests per sealed
block, Merkle hashes per block and JSON bytes written per tx.

A count of work is deterministic for a fixed config, where a timing is not.
Each live count is an upper bound: a change may lower one and say so.
Replay checks every loaded tx by its kind, so its counts are exact.
"""

import hashlib
from collections import Counter

from dice import codec, ledger
from dice.channel import PaymentChannel
from dice.harness import ScenarioConfig, run_scenario, verify_ledger
from dice.ledger import Ledger, load_blocks_jsonl

COUNTED = [(ledger, "tx_digest"), (ledger, "_tx_text"), (codec.KeyedMacSigner, "sign"),
           (codec.KeyedMacSigner, "verify"), (PaymentChannel, "proof_message"),
           *((cls, "check") for cls in ledger._PAYLOAD_CLASSES)]

# Per counted call: its most calls per on-chain tx and per off-chain proof.
# A proof's bytes are built once by the roamer and once by the VMNO, which
# verifies its MAC; ``submit`` verifies no MAC of a tx ``append`` just signed,
# nor type-checks its payload again.  A tx's text is built for its id and
# again for its line in ``ledger.jsonl``.
LIVE_BOUNDS = {"tx_digest": (1, 0), "check": (1, 0), "_tx_text": (2, 0), "sign": (1, 1), "verify": (0, 1),
               "proof_message": (0, 2)}
# Per counted call: its calls per replayed tx.  The load type-checks a tx and
# builds its text once, and proves its id from that text, so ``submit`` only
# verifies its MAC.  An agreement is the exception: a caller could edit its
# charging dict in place after the load, so ``submit`` re-digests it through
# the door, ``tx_digest``, which type-checks it and builds its text again.
REPLAY_COUNTS = {"tx_digest": 0, "check": 1, "_tx_text": 1, "sign": 0, "verify": 1, "proof_message": 0}
AGREEMENT_REPLAY_COUNTS = {**REPLAY_COUNTS, "tx_digest": 1, "check": 2, "_tx_text": 2}
# The ``codec.digest`` calls per sealed block (its header's), and the most
# ``ledger.jsonl`` bytes per on-chain tx after the genesis line.
DIGESTS_PER_BLOCK = 1
JSON_BYTES_PER_TX = 313.6
# The header door's calls per block, genesis included: live, its seal; on
# replay, its load and its reseal.
HEADER_CHECKS_PER_BLOCK = {"live": 1, "replay": 2}


def count_calls(monkeypatch) -> Counter:
    counts = Counter()
    for owner, name in COUNTED:
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_digests_and_macs_per_tx_and_per_proof(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch)
    report = run_scenario(ScenarioConfig(seed=42, days=5), tmp_path)
    txs, proofs = report.onchain_tx_total, report.offchain_proofs_total
    assert txs > 0 and proofs > 0
    for name, (per_tx, per_proof) in LIVE_BOUNDS.items():
        # Above 0: the wrapper sees the calls it counts.
        assert 0 < counts[name] <= per_tx * txs + per_proof * proofs, (name, counts[name], txs, proofs)

    kinds = Counter(tx.payload.kind for block in load_blocks_jsonl(tmp_path / "ledger.jsonl") for tx in block.txs)
    agreements = kinds["agreement"]
    assert sum(kinds.values()) == txs and 0 < agreements < txs, kinds
    counts.clear()
    assert verify_ledger(tmp_path / "ledger.jsonl").valid
    expected = {name: n * (txs - agreements) + AGREEMENT_REPLAY_COUNTS[name] * agreements
                for name, n in REPLAY_COUNTS.items()}
    assert dict(counts) == {name: n for name, n in expected.items() if n}


def test_one_keyed_mac_state_per_actor_per_signer(tmp_path, monkeypatch):
    """A run and its replay each key at most one BLAKE2s state per actor per
    ``KeyedMacSigner``: every MAC starts from a copy of it, none re-keys."""
    keyed, signers = Counter(), []
    blake2s, init = hashlib.blake2s, codec.KeyedMacSigner.__init__

    def counted_blake2s(*args, **kwargs):
        if "key" in kwargs:
            keyed[kwargs["key"]] += 1
        return blake2s(*args, **kwargs)

    def counted_init(self, keys):
        signers.append(self)
        init(self, keys)

    monkeypatch.setattr(hashlib, "blake2s", counted_blake2s)
    monkeypatch.setattr(codec.KeyedMacSigner, "__init__", counted_init)

    def assert_keyed_once():
        # Every simulator key is 32 bytes, so it keys its state as it is.
        holders = Counter(key for signer in signers for key in signer.keys.values())
        assert keyed and all(n <= holders[key] for key, n in keyed.items()), (keyed.most_common(3), len(signers))

    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path)
    assert_keyed_once()
    keyed.clear()
    signers.clear()
    assert verify_ledger(tmp_path / "ledger.jsonl").valid
    assert_keyed_once()


def count_within(monkeypatch, counts: Counter, outer: tuple, inner: tuple) -> None:
    """Count in ``counts``, under inner's name, the calls to ``inner`` made
    while ``outer`` runs; each is an (owner, name) pair."""
    outer_fn, inner_fn = getattr(*outer), getattr(*inner)
    running = 0

    def counted_outer(*args, **kwargs):
        nonlocal running
        running += 1
        try:
            return outer_fn(*args, **kwargs)
        finally:
            running -= 1

    def counted_inner(*args, **kwargs):
        if running:
            counts[inner[1]] += 1
        return inner_fn(*args, **kwargs)

    monkeypatch.setattr(*outer, counted_outer)
    monkeypatch.setattr(*inner, counted_inner)


def test_encoder_calls_per_block_merkle_hashes_per_block_and_bytes_per_tx(tmp_path, monkeypatch):
    counts = Counter()
    count_within(monkeypatch, counts, (Ledger, "seal_block"), (codec, "digest"))
    count_within(monkeypatch, counts, (codec, "merkle_root"), (hashlib, "sha256"))
    report = run_scenario(ScenarioConfig(seed=42, days=5), tmp_path)
    sealed = load_blocks_jsonl(tmp_path / "ledger.jsonl")[1:]   # genesis is not sealed by seal_block
    assert sum(len(block.txs) for block in sealed) == report.onchain_tx_total > 0
    assert counts["digest"] == DIGESTS_PER_BLOCK * len(sealed), (counts, len(sealed))
    # Above 0: the wrapper sees the calls it counts.  A binary tree over n leaves has n - 1 inner nodes.
    assert 0 < counts["sha256"] <= sum(len(block.txs) - 1 for block in sealed), counts
    _, _, rest = (tmp_path / "ledger.jsonl").read_bytes().partition(b"\n")
    assert 0 < len(rest) <= JSON_BYTES_PER_TX * report.onchain_tx_total, (len(rest), report.onchain_tx_total)


def test_header_checks_per_block_live_and_on_replay(tmp_path, monkeypatch):
    counts, check = Counter(), ledger._check_header

    def counted(*args):
        counts["check_header"] += 1
        return check(*args)

    monkeypatch.setattr(ledger, "_check_header", counted)
    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path)
    live = counts.pop("check_header")
    assert verify_ledger(tmp_path / "ledger.jsonl").valid
    replay = counts.pop("check_header")
    blocks = len(load_blocks_jsonl(tmp_path / "ledger.jsonl"))
    assert blocks > 1
    assert {"live": live, "replay": replay} == {k: n * blocks for k, n in HEADER_CHECKS_PER_BLOCK.items()}
