"""Golden outputs: a short fixed scenario writes byte-identical files.

Only a change that deliberately alters an output format (and says so in
CHANGES.md) updates these digests.
"""

import hashlib

import pytest

from dice.harness import ScenarioConfig, replay_ledger, run_scenario
from dice.settlement import write_settlement_csv

GOLDEN_SHA256 = {
    "ledger.jsonl": "348c2a9693d79abd2baac3f7bf44965da343fba4df2af5dc6889c0cffe5ba9ae",
    "report.json": "23b10e20c9c534a5e753696fb7334ec704567150108a1e177567ad7251686d65",
    "settlement.csv": "a0e3254e304fec11f3df67ec92c2b3368de243f7cfbbcf9461bed5789bb240df",
    "proofs.jsonl": "a33545280d76e80a037be745f1dc6b4b0db5b65f615238852be79fde0eeaf80c",
    "events.jsonl": "79e6718decb08321394947ede874bf10f57bc7f25d3ff0da98abe750592394e6",
}


def settlement_of_the_replay(out_dir) -> str:
    """The digest of the settlement.csv written from the bank a replay of
    ``out_dir``'s ledger.jsonl ends with."""
    verdict, bank = replay_ledger(out_dir / "ledger.jsonl")
    assert verdict.valid
    write_settlement_csv(out_dir / "replayed.csv", bank)
    return hashlib.sha256((out_dir / "replayed.csv").read_bytes()).hexdigest()


def test_outputs_match_the_golden_digests(tmp_path):
    run_scenario(ScenarioConfig(seed=42, days=5), tmp_path, dump_proofs="proofs.jsonl", dump_events="events.jsonl")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
    assert settlement_of_the_replay(tmp_path) == GOLDEN_SHA256["settlement.csv"]


# Larger runs: HR mode, and the benchmark's chain (about 10.6k txs) and
# payments (about 1k sessions of about 120 proofs each) workloads.
GOLDEN_RUNS = {
    "hr-seed-7": (ScenarioConfig(seed=7, mode="hr"), {
        "ledger.jsonl": "acfc3579bda77e7d97e11cc5a8235231c391735cba2d77145900b0302c45b550",
        "report.json": "bae551d5f382b4446a75e040b9c0d41eb4c91401045218c26f1de2fc9f3ee8c3",
        "settlement.csv": "773eb03dc6a811b4574d3406cfecf42498e6c23eede21c157de3e6de50297b03",
    }),
    "chain-seed-42": (ScenarioConfig(seed=42, roamers_per_vmno_day=1_000_000,
                                     churn_fraction_range=(0.2, 0.2)), {
        "ledger.jsonl": "eefa4196e7193c1ed71243ed4df5fffeff43ec31318d7ee2f5e10f2faae2f0fc",
        "report.json": "e16aa83d42a42a5794f80a4b82732b804d5a52da875a720ccb1f1611ff444ceb",
        "settlement.csv": "7c759d7afb712192eac70596ab2ce6cf44181589539376d156407b6fb638d8fe",
    }),
    "payments-seed-42": (ScenarioConfig(seed=42, churn_fraction_range=(0.2, 0.2), silent_fraction=0.0,
                                        daily_traffic_median_bytes=2_000_000, initial_allotment=10_000,
                                        expected_visit_bytes=1_000_000_000), {
        "ledger.jsonl": "e35da25d2ae4c0329d8e0b11e478bef3797bb31aea12014ad4a6c80a4ac93d13",
        "report.json": "2250e5e8090d95f2789de3540505412b4c72df3c499896607fa976bb61605eaa",
        "settlement.csv": "c3df848296748fa3cdd2eaff56a1b5acb266d790afdf2d1e1c7693397458e112",
    }),
}


@pytest.mark.parametrize("config, golden", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS)
def test_larger_runs_match_their_golden_digests(tmp_path, config, golden):
    run_scenario(config, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden}
    assert digests == golden
    assert settlement_of_the_replay(tmp_path) == golden["settlement.csv"]
