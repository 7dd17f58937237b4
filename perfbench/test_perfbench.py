"""Tests of the benchmark itself, on a tiny scenario.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import PER_LAYER, Tracer, layer_metrics

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
dice = run.load_dice()


@pytest.fixture(scope="module")
def tiny():
    config = dice.harness.ScenarioConfig(seed=3, days=4, roamers_per_vmno_day=30_000, **run.COMMON)
    return config, dice.workload.generate(config.workload())


@pytest.fixture(scope="module")
def traced(tiny, tmp_path_factory):
    return run.traced_runs(dice, *tiny, tmp_path_factory.mktemp("traced"))


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_untraced_result_has_every_end_to_end_metric_with_unit(tiny, tmp_path):
    runs = run.timed_runs(dice, *tiny, seconds=0, out_dir=tmp_path)
    result = run.summarize(runs, len(tiny[1].arrivals), run.end_to_end(runs, [0.1, 0.2, 0.3]),
                           run.END_TO_END)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(r.run_refs and len(r.verify_refs) == len(r.verify_times) for r in runs)


def test_times_are_reported_in_reference_seconds():
    assert run.at_reference_speed(2.0, [run.REF_SLICE_S] * 3) == pytest.approx(2.0)
    assert run.at_reference_speed(2.0, [2 * run.REF_SLICE_S, 2 * run.REF_SLICE_S]) == pytest.approx(1.0)


def test_traced_result_has_every_layer_metric_with_unit(tiny, traced):
    plain, traced_run, tracers = traced
    values = layer_metrics(*tracers, plain.run_s, 0.01)
    result = run.summarize([plain, traced_run], len(tiny[1].arrivals), values, run.PER_LAYER_UNITS)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _better, _moves in PER_LAYER}


def test_tracer_sees_every_call_the_report_counts(traced):
    _plain, traced_run, (run_tracer, verify_tracer) = traced
    report = traced_run.report
    assert report.offchain_proofs_total > 0
    assert run_tracer.stat("channel.receive_proof").calls == report.offchain_proofs_total
    assert run_tracer.stat("ledger.submit").calls == report.onchain_tx_total
    assert run_tracer.stat("codec.sign").calls == report.offchain_proofs_total + report.onchain_tx_total
    assert verify_tracer.count("ledger.verify_blocks.txs") == report.onchain_tx_total
    assert run_tracer.spans and verify_tracer.spans


def test_tracing_changes_no_output(traced):
    plain, traced_run, _tracers = traced
    assert traced_run.digests == plain.digests
    assert run.problems_of(traced_run, plain.digests) == []


def test_tracer_restores_the_identical_original_objects():
    tracer = Tracer(dice)
    with pytest.raises(RuntimeError):
        with tracer:
            wrapped = list(tracer._saved)
            for owner, attr, original in wrapped:
                assert vars(owner)[attr] is not original
            raise RuntimeError("leave the block by an exception")
    assert len(wrapped) > 30
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original


def test_gate_rejects_a_tampered_chain_and_changed_outputs(traced, tmp_path):
    plain = traced[0]
    ledger = tmp_path / "ledger.jsonl"
    raw = bytearray((plain.out_dir / "ledger.jsonl").read_bytes())
    raw[-40] ^= 1
    ledger.write_bytes(bytes(raw))
    broken = run.Iteration(plain.out_dir, plain.run_s, plain.verify_times, plain.report,
                           dice.harness.verify_ledger(ledger), plain.digests)
    assert any(p.startswith("verify_ledger") for p in run.problems_of(broken, plain.digests))
    other = dict(plain.digests, **{"report.json": "0" * 64})
    assert run.problems_of(plain, other) == ["report.json differs between runs of one seed"]


def test_exits_nonzero_without_the_simulator_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
