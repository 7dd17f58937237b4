"""Work per unit on the golden config, counted by wrapping codec entry points
from the test: canonical digests, MAC signs and MAC verifies per on-chain tx
and per off-chain proof, live and on replay.

A count of work is deterministic for a fixed config, where a timing is not.
Each live count is an upper bound: a change may lower one and say so.
Replay re-checks every loaded tx, so its counts are exact.
"""

from collections import Counter

from dice import codec
from dice.harness import ScenarioConfig, run_scenario, verify_ledger

COUNTED = [(codec.RecordLayout, "digest"), (codec.KeyedMacSigner, "sign"), (codec.KeyedMacSigner, "verify")]

# Per counted call: its most calls per on-chain tx and per off-chain proof.
LIVE_BOUNDS = {"digest": (1, 0), "sign": (1, 1), "verify": (1, 1)}
# Per counted call: its calls per replayed tx.
REPLAY_COUNTS = {"digest": 1, "sign": 0, "verify": 1}


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
