"""The batch entry points run with the cyclic garbage collector paused.

``run_scenario`` and ``replay_ledger`` turn the collector off and restore
the state they found, on return and on raise.  That is safe only because
they make no reference cycles: reference counting then frees everything
they drop.  The garbage tests below check that claim directly.
"""

import gc
import json
from collections import Counter

import pytest

from dice.errors import IoFailure, PayloadRejected
from dice.harness import ScenarioConfig, replay_ledger, run_scenario, verify_ledger


def small_config(**kw):
    defaults = dict(seed=3, days=7, roamers_per_vmno_day=30_000, scale=0.001)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on, and leave it as it was found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def rewrite_line(path, number, edit):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[number])
    edit(rec)
    lines[number] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def flip_hex(value: str) -> str:
    return ("1" if value[0] == "0" else "0") + value[1:]


def truncate(path):
    path.write_bytes(path.read_bytes()[:-25])


def bad_signature(path):
    def edit(rec):
        tx = rec["txs"][0]
        tx["signature"] = flip_hex(tx["signature"])
    rewrite_line(path, 1, edit)


def bad_block_hash(path):
    rewrite_line(path, 1, lambda rec: rec.update(block_hash=flip_hex(rec["block_hash"])))


# Each breaks a copy of a valid chain; the verdict's reason must say how.
BROKEN_CHAINS = {
    "parse error": (truncate, "parse error"),
    "bad signature": (bad_signature, "rejected"),
    "block mismatch": (bad_block_hash, "block_hash mismatch"),
}


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """A valid chain and each broken copy, after one warm-up pass over every
    path the garbage tests take (a cold first run leaves import garbage)."""
    out = tmp_path_factory.mktemp("chains")
    run_scenario(small_config(), out / "run", dump_proofs="proofs.jsonl", dump_events="events.jsonl")
    valid = out / "run" / "ledger.jsonl"
    paths = {"valid": valid}
    for name, (breaker, reason) in BROKEN_CHAINS.items():
        path = out / f"{name.replace(' ', '_')}.jsonl"
        path.write_bytes(valid.read_bytes())
        breaker(path)
        assert reason in verify_ledger(path).reason
        paths[name] = path
    assert verify_ledger(valid).valid
    return paths


# --- the collector's state --------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_and_replay_restore_the_collector(tmp_path, collector_enabled, enabled):
    if not enabled:
        gc.disable()
    run_scenario(small_config(days=2), tmp_path / "run")
    assert gc.isenabled() == enabled
    replay_ledger(tmp_path / "run" / "ledger.jsonl")
    assert gc.isenabled() == enabled
    # The redeem's price overflows to infinity, which the bank rejects.
    with pytest.raises(PayloadRejected):
        run_scenario(small_config(days=2, charging={"model": "per_unit", "rate": 1e308}), tmp_path / "bad")
    assert gc.isenabled() == enabled
    with pytest.raises(IoFailure):
        replay_ledger(tmp_path)   # a directory
    assert gc.isenabled() == enabled


def test_the_collector_is_off_during_a_run(tmp_path, collector_enabled):
    seen = []
    run_scenario(small_config(days=2), tmp_path, on_seal=lambda _engine: seen.append(gc.isenabled()))
    assert seen and not any(seen)


def count_collections(fn, *args):
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(hook)
    return len(started)


def test_a_replay_starts_no_collection(chains, collector_enabled):
    # Unpaused, the same replay sets off collections; paused, it sets off none.
    assert count_collections(replay_ledger.__wrapped__, chains["valid"]) > 0
    assert count_collections(replay_ledger, chains["valid"]) == 0


# --- no cyclic garbage ---------------------------------------------------------------


def cyclic_garbage(fn, *args, **kwargs) -> Counter:
    """Objects by type that only the collector could free once ``fn``'s
    call and result are dropped."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)   # keep what is found, to name it
    try:
        fn(*args, **kwargs)
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("dumps", [{}, {"dump_proofs": "proofs.jsonl", "dump_events": "events.jsonl"}],
                         ids=["plain", "dumps"])
def test_a_run_leaves_no_cyclic_garbage(chains, tmp_path, dumps):
    garbage = cyclic_garbage(run_scenario, small_config(), tmp_path, **dumps)
    assert not garbage, garbage.most_common(10)


@pytest.mark.parametrize("chain", ["valid", *BROKEN_CHAINS])
def test_a_replay_leaves_no_cyclic_garbage(chains, chain):
    garbage = cyclic_garbage(replay_ledger, chains[chain])
    assert not garbage, garbage.most_common(10)
