"""Golden outputs: a short fixed scenario writes byte-identical files.

Only a change that deliberately alters an output format (and says so in
CHANGES.md) updates these digests.
"""

import hashlib

import pytest

from dice.harness import ScenarioConfig, run_scenario

GOLDEN_SHA256 = {
    "ledger.jsonl": "ba7ab1a3d1bb3924b26fde5db8129290b4af95554e903c9ca78d9e64447f280e",
    "report.json": "23b10e20c9c534a5e753696fb7334ec704567150108a1e177567ad7251686d65",
    "settlement.csv": "a0e3254e304fec11f3df67ec92c2b3368de243f7cfbbcf9461bed5789bb240df",
    "proofs.jsonl": "c0985079b67172dd96968fdc5684dbeafc78e22124f8be6b86fb7959a92afd40",
    "events.jsonl": "08ddd3fcb8bc9cc6a6d636cd8f3882052c9db474a374ba6f5fa3625b4ee2ab5e",
}


def test_outputs_match_the_golden_digests(tmp_path):
    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path, dump_proofs="proofs.jsonl", dump_events="events.jsonl")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# Larger runs: HR mode, and the benchmark's chain (about 10.6k txs) and
# payments (about 1k sessions of about 120 proofs each) workloads.
GOLDEN_RUNS = {
    "hr-seed-7": (ScenarioConfig(seed=7, mode="hr"), {
        "ledger.jsonl": "505528b9946d4ad0de4a2d2a604c858ad8d6c35aa04c077ad16e1c64443390cb",
        "report.json": "bae551d5f382b4446a75e040b9c0d41eb4c91401045218c26f1de2fc9f3ee8c3",
        "settlement.csv": "773eb03dc6a811b4574d3406cfecf42498e6c23eede21c157de3e6de50297b03",
    }),
    "chain-seed-42": (ScenarioConfig(seed=42, roamers_per_vmno_day=1_000_000,
                                     churn_fraction_range=(0.2, 0.2)), {
        "ledger.jsonl": "3e8bc663e280a35cacf6959f60797d7b36397e181d1e9fbbb1d3106dd2d44c4a",
        "report.json": "e16aa83d42a42a5794f80a4b82732b804d5a52da875a720ccb1f1611ff444ceb",
        "settlement.csv": "7c759d7afb712192eac70596ab2ce6cf44181589539376d156407b6fb638d8fe",
    }),
    "payments-seed-42": (ScenarioConfig(seed=42, churn_fraction_range=(0.2, 0.2), silent_fraction=0.0,
                                        daily_traffic_median_bytes=2_000_000, initial_allotment=10_000,
                                        expected_visit_bytes=1_000_000_000), {
        "ledger.jsonl": "10f1e25e37e7172e3ec7fad98276ba6bd4fa638d89adfdf2ea806b1548ef9ec8",
        "report.json": "2250e5e8090d95f2789de3540505412b4c72df3c499896607fa976bb61605eaa",
        "settlement.csv": "c3df848296748fa3cdd2eaff56a1b5acb266d790afdf2d1e1c7693397458e112",
    }),
}


@pytest.mark.parametrize("config, golden", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS)
def test_larger_runs_match_their_golden_digests(tmp_path, config, golden):
    run_scenario(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden
