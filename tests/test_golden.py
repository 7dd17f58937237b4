"""Golden outputs: a short fixed scenario writes byte-identical files.

Only a change that deliberately alters an output format (and says so in
CHANGES.md) updates these digests.
"""

import hashlib

import pytest

from dice.harness import ScenarioConfig, run_scenario

GOLDEN_SHA256 = {
    "ledger.jsonl": "f738f476f1dd1bc9e04d5ac0eb34a413f3373e5b11ba92cb157202a68c75c54f",
    "report.json": "a3a693f1772621e90ac84f71234909355813bd2ca795c1b70f85d649a374c244",
    "settlement.csv": "9cbfabdd9768980ac7cb0736b7f8eb5eb02a7c6fca8143bb60759704a9c0b3e0",
    "proofs.jsonl": "e30cdf46f26cad6503f525ec243b0502d74697f5e43e15460fe6b94135fea629",
    "events.jsonl": "6c04c081fa08cdacf2be749f9e7d1b0cb1b2b52296c0df834b4f9f5d08873ffe",
}


def test_outputs_match_the_golden_digests(tmp_path):
    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path, dump_proofs=True, dump_events=True)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# Larger runs: HR mode, and the benchmark's chain (about 10.6k txs) and
# payments (about 1k sessions of about 120 proofs each) workloads.
GOLDEN_RUNS = {
    "hr-seed-7": (ScenarioConfig(seed=7, mode="hr"), {
        "ledger.jsonl": "dad9fbeda714dbc318eeb675f220d02497243f7c22539e6ac3cead4340dedc3e",
        "report.json": "c8eafb438d21cf54e4c8b0acaaaff616f639d935fadc876d9d4f3f91fbf34fd2",
        "settlement.csv": "9b62394bf324b6e1a559f3fe6fcc0b7fa42d02f3c33df9e661cc3a874c930e54",
    }),
    "chain-seed-42": (ScenarioConfig(seed=42, roamers_per_vmno_day=1_000_000,
                                     churn_fraction_range=(0.2, 0.2)), {
        "ledger.jsonl": "6c3562757dc370b5ef63dacfdef1700499429f0bddf4fd98f705520a2e81586e",
        "report.json": "f27a21d0f17c3f8091a86fa29f0e2a9f322921cc3cef49567e637491c26896a2",
        "settlement.csv": "2b8b6818f044c39201707f66e3385813364df34d4e4473edbc3cf647d2943f44",
    }),
    "payments-seed-42": (ScenarioConfig(seed=42, churn_fraction_range=(0.2, 0.2), silent_fraction=0.0,
                                        daily_traffic_median_bytes=2_000_000, initial_allotment=10_000,
                                        expected_visit_bytes=1_000_000_000), {
        "ledger.jsonl": "84500fb4b2a459ccacf48c75f0ffc9a5f272a164024f9371cc839925521d5ce9",
        "report.json": "90434470cca38e1361f908a564d0c134eb4da81d99aa90d747a9cffa4734e597",
        "settlement.csv": "24c96f811dcfe97f68fc7d386cdd9abb4d2eb7a944868a47a8c38140d4a2d37a",
    }),
}


@pytest.mark.parametrize("config, golden", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS)
def test_larger_runs_match_their_golden_digests(tmp_path, config, golden):
    run_scenario(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden
