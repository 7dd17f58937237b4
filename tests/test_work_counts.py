"""Work per unit on the golden config, counted by wrapping codec entry points
from the test: canonical digests, MAC signs, MAC verifies and proof-byte
builds per on-chain tx and per off-chain proof, live and on replay;
general-encoder calls per block header, Merkle hashes per block and JSON
bytes written per tx.

A count of work is deterministic for a fixed config, where a timing is not.
Each live count is an upper bound: a change may lower one and say so.
Replay re-checks every loaded tx, so its counts are exact.
"""

import hashlib
from collections import Counter

from dice import codec
from dice.harness import ScenarioConfig, run_scenario, verify_ledger
from dice.ledger import Ledger, load_blocks_jsonl

COUNTED = [(codec.RecordLayout, "digest"), (codec.KeyedMacSigner, "sign"), (codec.KeyedMacSigner, "verify"),
           (codec, "append_int_pair")]

# Per counted call: its most calls per on-chain tx and per off-chain proof.
# A proof's bytes are built once by the roamer and once by the VMNO.
LIVE_BOUNDS = {"digest": (1, 0), "sign": (1, 1), "verify": (1, 1), "append_int_pair": (0, 2)}
# Per counted call: its calls per replayed tx.
REPLAY_COUNTS = {"digest": 1, "sign": 0, "verify": 1, "append_int_pair": 0}
# The most ``codec._enc`` calls per sealed block (its header digest), and the
# most ``ledger.jsonl`` bytes per on-chain tx after the genesis line.
ENC_PER_BLOCK = 6
JSON_BYTES_PER_TX = 313.6


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

    counts.clear()
    assert verify_ledger(tmp_path / "ledger.jsonl").valid
    assert dict(counts) == {name: n * txs for name, n in REPLAY_COUNTS.items() if n}


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
    count_within(monkeypatch, counts, (Ledger, "seal_block"), (codec, "_enc"))
    count_within(monkeypatch, counts, (codec, "merkle_root"), (hashlib, "sha256"))
    report = run_scenario(ScenarioConfig(seed=42, days=5), tmp_path)
    sealed = load_blocks_jsonl(tmp_path / "ledger.jsonl")[1:]   # genesis is not sealed by seal_block
    assert sum(len(block.txs) for block in sealed) == report.onchain_tx_total > 0
    # Above 0: the wrappers see the calls they count.
    assert 0 < counts["_enc"] <= ENC_PER_BLOCK * len(sealed), (counts, len(sealed))
    # A binary tree over n leaves has n - 1 inner nodes.
    assert 0 < counts["sha256"] <= sum(len(block.txs) - 1 for block in sealed), counts
    _, _, rest = (tmp_path / "ledger.jsonl").read_bytes().partition(b"\n")
    assert 0 < len(rest) <= JSON_BYTES_PER_TX * report.onchain_tx_total, (len(rest), report.onchain_tx_total)
