"""Golden outputs: a short fixed scenario writes byte-identical files.

Only a change that deliberately alters an output format (and says so in
CHANGES.md) updates these digests.
"""

import hashlib

from dice.harness import ScenarioConfig, run_scenario

GOLDEN_SHA256 = {
    "ledger.jsonl": "f738f476f1dd1bc9e04d5ac0eb34a413f3373e5b11ba92cb157202a68c75c54f",
    "report.json": "a3a693f1772621e90ac84f71234909355813bd2ca795c1b70f85d649a374c244",
    "settlement.csv": "9cbfabdd9768980ac7cb0736b7f8eb5eb02a7c6fca8143bb60759704a9c0b3e0",
    "proofs.jsonl": "bdbd102cf148e1f04f2655f0b585431e3f7fbf7e5f8ade847a7abca6a42b9e58",
    "events.jsonl": "6c04c081fa08cdacf2be749f9e7d1b0cb1b2b52296c0df834b4f9f5d08873ffe",
}


def test_outputs_match_the_golden_digests(tmp_path):
    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path, dump_proofs=True, dump_events=True)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
