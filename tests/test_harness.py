"""Scenario runner, requirements projection, ledger file verification, CLI."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import dice
from dice.cli import main as cli_main
from dice.errors import InvalidConfig, IoFailure
from dice.harness import (
    DAY,
    REPORT_SCHEMA,
    SCENARIO_SCHEMA,
    VISITED_MNO_DAILY_BYTES,
    MetricsReport,
    ScenarioConfig,
    chain_figures,
    check_requirements,
    extrapolate,
    replay_ledger,
    run_scenario,
    verify_ledger,
)
from dice.ledger import QueryFilter, TxPayload, load_blocks_jsonl
from dice.settlement import Fixed, Parity, PerUnit
from dice.tokenbank import TokenBank
from dice.workload import Arrival, SessionEventTrace, WorkloadConfig, _check_schema, config_schema, generate


def minimal_trace(cfg, nbytes=2_500_000, silent=False):
    """One roamer from one home MNO, with a fixed-size visit."""
    trace = SessionEventTrace(cfg.workload())
    trace.arrivals.append(Arrival(day=0, roamer="r-0000000", hmno="H001",
                                  home_country="C001", stay_days=2, silent=silent))
    if not silent:
        trace.traffic["r-0000000"] = [(0, nbytes)]
    return trace


def small_config(**kw):
    defaults = dict(seed=3, days=7, roamers_per_vmno_day=30_000, scale=0.001)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_minimal_scenario_accounting(tmp_path):
    cfg = small_config(days=3)
    report = run_scenario(cfg, tmp_path, trace=minimal_trace(cfg))
    # 1 issue + 1 agreement + (attach, open, close) + 1 redeem = 6 on-chain txs.
    assert report.onchain_tx_by_kind == {
        "agreement": 1, "attach": 1, "channel_close": 1,
        "channel_open": 1, "issue": 1, "redeem": 1,
    }
    assert report.onchain_tx_total == 6
    assert report.offchain_proofs_total == 25
    assert report.sessions_completed == 1
    assert report.bytes_serviced == 2_500_000
    assert report.tokens_settled_by_pair == {"V-001|H001": 25}
    assert report.fiat_cleared_by_pair["V-001|H001"] == pytest.approx(1.00)
    for name in ("report.json", "ledger.jsonl", "settlement.csv"):
        assert (tmp_path / name).exists()


def test_a_visit_open_at_the_horizon_is_closed_there_before_the_redeem(tmp_path):
    """Traffic every day keeps the sweep off the channel; the stay outlasts
    the run, so the close comes at the horizon, in the last block, ahead of
    the redeem that spends what it paid."""
    cfg = small_config(days=3)
    trace = minimal_trace(cfg)
    trace.arrivals[0].stay_days = 10
    trace.traffic["r-0000000"] = [(day, 500_000) for day in range(cfg.days)]
    run_scenario(cfg, tmp_path, trace=trace)
    blocks = load_blocks_jsonl(tmp_path / "ledger.jsonl")
    closes = [(block, tx) for block in blocks for tx in block.txs if tx.payload.kind == "channel_close"]
    assert len(closes) == 1
    block, close = closes[0]
    assert close.timestamp == block.sealed_at == cfg.days * DAY
    assert block is blocks[-1]
    kinds = [tx.payload.kind for tx in block.txs]
    assert kinds == ["channel_close", "redeem"]


def test_traffic_listed_before_its_arrival_is_an_invalid_config(tmp_path):
    cfg = small_config(days=3)
    trace = minimal_trace(cfg)
    trace.arrivals[0].day = 1
    trace.traffic["r-0000000"] = [(0, 500_000), (1, 500_000)]
    with pytest.raises(InvalidConfig, match=r"traffic of roamer r-0000000 on day 0, before its arrival"):
        run_scenario(cfg, tmp_path, trace=trace)


def test_traffic_of_a_roamer_with_no_arrival_is_an_invalid_config(tmp_path):
    cfg = small_config(days=3)
    trace = minimal_trace(cfg)
    trace.traffic["r-ghost"] = [(0, 9_000_000)]
    with pytest.raises(InvalidConfig, match=r"traffic of roamer r-ghost, who has no arrival"):
        run_scenario(cfg, tmp_path, trace=trace)


def test_silent_only_scenario(tmp_path):
    cfg = small_config(silent_fraction=1.0, days=5)
    report = run_scenario(cfg, tmp_path)
    assert report.offchain_proofs_total == 0
    assert report.bytes_serviced == 0
    assert report.fiat_cleared_by_pair == {}
    assert report.tokens_settled_by_pair == {}
    assert report.sessions_completed > 0
    assert report.silent_sessions == report.sessions_completed


def test_same_config_byte_identical_outputs(tmp_path):
    cfg = small_config()
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("report.json", "ledger.jsonl", "settlement.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_tx_identity(tmp_path):
    report = run_scenario(small_config(), tmp_path)
    kinds = report.onchain_tx_by_kind
    assert report.onchain_tx_total == (
        kinds.get("issue", 0) + kinds.get("agreement", 0)
        + 3 * report.sessions_completed + kinds.get("redeem", 0)
    )


def test_each_channel_fact_is_held_once(tmp_path):
    """A channel keeps the very open payload the bank holds and a close equal
    to the ledger's; the report's settled tokens are the chain's close paid
    amounts, summed by (visited operator, issuer of the wallet's funding)."""
    captured = []
    report = run_scenario(small_config(), tmp_path, on_seal=captured.append)
    engine = captured[-1]
    bank, ledger = engine.bank, engine.ledger
    assert engine.channels.channels
    for channel_id, ch in engine.channels.channels.items():
        assert ch.opened is bank.channel_opens[channel_id]
        assert ch.opened == ledger.get_tx(ch.open_tx).payload
        assert ch.closed == ledger.get_tx(ch.close_tx).payload
        assert ch.status == "closed"

    funded_by, opens, by_pair = {}, {}, Counter()
    for tx in ledger.all_txs():
        p = tx.payload
        if p.kind == "issue":
            funded_by[p.wallet] = p.issuer
        elif p.kind == "channel_open":
            opens[p.channel] = p
        elif p.kind == "channel_close" and p.paid:
            opened = opens[p.channel]
            by_pair[f"{opened.vmno}|{funded_by[opened.wallet]}"] += p.paid
    assert by_pair and report.tokens_settled_by_pair == dict(sorted(by_pair.items()))


@pytest.mark.parametrize("overrides", [dict(seed=42), dict(seed=7, mode="hr")], ids=["lbo-42", "hr-7"])
def test_replayed_ledger_answers_like_the_live_one(tmp_path, overrides):
    """Every roster reader's view, whole and per payload kind, is the same
    on the live ledger and on the ledgers both replays build."""
    captured = []
    run_scenario(ScenarioConfig(days=1, **overrides), tmp_path, on_seal=captured.append)
    live = captured[-1].ledger
    replayed = [replay_ledger(tmp_path / "ledger.jsonl")[1].ledger,
                TokenBank.rebuild_from_ledger(live).ledger]
    assert live.query(live.roster[0], QueryFilter(kind="channel_open"))  # the VMNO sees its channels
    for flt in [QueryFilter(), *(QueryFilter(kind=cls.kind) for cls in get_args(TxPayload))]:
        for reader in live.roster:
            expected = [tx.tx_id for tx in live.query(reader, flt)]
            for ledger in replayed:
                assert [tx.tx_id for tx in ledger.query(reader, flt)] == expected, (reader, flt)
    for ledger in replayed:
        assert ledger.tx_index.keys() == live.tx_index.keys()


def test_every_exported_name_resolves():
    assert len(set(dice.__all__)) == len(dice.__all__)
    assert [name for name in dice.__all__ if not hasattr(dice, name)] == []


def expected_close_tokens(serviced_bytes, deposit, round_up=True):
    """Independent restatement of the billing rule for the oracle side."""
    if serviced_bytes < 100_000:
        return 0  # preimage never revealed, nothing claimable
    full = serviced_bytes // 100_000
    if round_up and serviced_bytes % 100_000 and full < deposit:
        full += 1
    return min(full, deposit)


def test_cross_module_accounting_closure(tmp_path):
    """Serviced bytes (rounded per channel) == tokens moved == tokens burned."""
    cfg = small_config()
    captured = []
    report = run_scenario(cfg, tmp_path / "run", on_seal=lambda e: captured.append(e))
    engine = captured[-1]
    expected_total = 0
    for ch in engine.channels.channels.values():
        expected = expected_close_tokens(ch.bytes_total, ch.opened.deposit)
        assert ch.closed.paid == expected, ch.opened.channel
        assert ch.closed.paid + ch.closed.refunded == ch.opened.deposit
        expected_total += expected
    tokens_moved = sum(report.tokens_settled_by_pair.values())
    assert tokens_moved == expected_total
    # Everything the VMNO earned was redeemed (burned) at the end, and the
    # treasury is empty afterwards.
    assert sum(engine.bank.burned_by.values()) == tokens_moved
    treasury = engine.bank.treasury(cfg.vmno)
    assert all(engine.bank.balance(treasury, m) == 0 for m in engine.ledger.roster)
    assert engine.bank.supply_closure_ok()


def test_proof_dump_matches_offchain_count(tmp_path):
    cfg = small_config()
    out = tmp_path / "run"
    report = run_scenario(cfg, out, dump_proofs="proofs.jsonl")
    lines = (out / "proofs.jsonl").read_text().splitlines()
    assert len(lines) == report.offchain_proofs_total
    # strictly increasing (seq, cumulative) per channel
    last: dict[str, tuple[int, int]] = {}
    for line in lines:
        rec = json.loads(line)
        prev = last.get(rec["channel_id"], (0, 0))
        assert rec["seq"] == prev[0] + 1
        assert rec["cumulative"] > prev[1]
        last[rec["channel_id"]] = (rec["seq"], rec["cumulative"])


def test_proofs_are_held_only_when_dumped(tmp_path):
    cfg = small_config()
    engines = {}
    for dump in (False, True):
        report = run_scenario(cfg, tmp_path / str(dump), dump_proofs="proofs.jsonl" if dump else None,
                              on_seal=lambda e, dump=dump: engines.__setitem__(dump, e))
        channels = engines[dump].channels
        assert report.offchain_proofs_total == channels.proofs_accepted > 0
        assert len(channels.accepted_proofs) == (channels.proofs_accepted if dump else 0)
    for name in ("report.json", "ledger.jsonl", "settlement.csv"):
        assert (tmp_path / "False" / name).read_bytes() == (tmp_path / "True" / name).read_bytes()


def test_an_empty_dump_path_is_an_io_failure(tmp_path):
    """An empty path names the out dir itself; it does not turn the dump off."""
    for dump in ("dump_proofs", "dump_events"):
        with pytest.raises(IoFailure):
            run_scenario(small_config(), tmp_path / dump, **{dump: ""})


def test_events_are_held_only_when_dumped(tmp_path):
    cfg = small_config()
    engines = {}
    for dump in (False, True):
        run_scenario(cfg, tmp_path / str(dump), dump_events="events.jsonl" if dump else None,
                     on_seal=lambda e, dump=dump: engines.__setitem__(dump, e))
    held = {dump: sum(len(s.events) for s in e.sessions.values()) for dump, e in engines.items()}
    assert held[False] == 0 and held[True] > 0
    assert len((tmp_path / "True" / "events.jsonl").read_text().splitlines()) == held[True]
    clocks = {dump: [s.clock for s in e.sessions.values()] for dump, e in engines.items()}
    assert clocks[False] == clocks[True]
    for name in ("report.json", "ledger.jsonl", "settlement.csv"):
        assert (tmp_path / "False" / name).read_bytes() == (tmp_path / "True" / name).read_bytes()


def test_extrapolation_consistency(tmp_path):
    cfg = small_config()
    report = run_scenario(cfg, tmp_path)
    assert report.extrapolated["onchain_tx_total"] == extrapolate(
        report.onchain_tx_total, cfg.scale, cfg.num_mnos
    )
    assert report.extrapolated["offchain_proofs_total"] == extrapolate(
        report.offchain_proofs_total, cfg.scale, cfg.num_mnos
    )


def test_extrapolate_rounds_half_to_even():
    assert extrapolate(1, 2.0, 5) == 2  # 2.5: half up would give 3


# --- requirements ---------------------------------------------------------------


def fake_report(onchain=4800, offchain=20_000, days=28, scale=0.001, num_mnos=800,
                factor=0.02, **config):
    cfg = ScenarioConfig(days=days, scale=scale, num_mnos=num_mnos, avg_mno_factor=factor, **config)
    return MetricsReport(
        config=cfg.to_dict(),
        onchain_tx_total=onchain,
        onchain_tx_by_kind={},
        offchain_proofs_total=offchain,
        peak_onchain_tps=10,
        sessions_completed=1000,
        silent_sessions=500,
        bytes_serviced=10**9,
        tokens_settled_by_pair={},
        fiat_cleared_by_pair={},
        extrapolated={},
    )


def test_ten_tb_day_gives_1e8_offchain_payments():
    # 10 TB/day at 100KB per payment: 10^13 / 10^5 = 10^8, exactly.
    verdict = check_requirements(fake_report())
    assert verdict.daily_offchain_projected == pytest.approx(1e8, rel=0.02)


def test_trace_based_offchain_projection_when_no_assumption():
    verdict = check_requirements(fake_report(), visited_mno_daily_bytes=None)
    assert verdict.daily_offchain_projected == pytest.approx(20_000 / 28 / 0.001)


def test_onchain_projection_and_pass():
    verdict = check_requirements(fake_report())
    # 4800/28/0.001 * 800 * 0.02 ~ 2.74e6: few millions a day.
    assert 1e6 <= verdict.daily_onchain_projected < 1e7
    assert verdict.projected_peak_tps < 20_000
    assert verdict.passed
    assert verdict.headroom_ratio > 1


def test_concentration_can_push_past_capacity():
    verdict = check_requirements(fake_report(concentration_hours=0.01))
    assert verdict.projected_peak_tps > 20_000
    assert not verdict.passed


# --- persisted ledger verification ------------------------------------------------


def test_verify_ledger_valid(tmp_path):
    run_scenario(small_config(), tmp_path)
    result = verify_ledger(tmp_path / "ledger.jsonl")
    assert result.valid and result.exit_code == 0


def test_verify_ledger_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        verify_ledger(tmp_path / "nope.jsonl")


def test_verify_ledger_on_a_directory_is_an_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="Is a directory"):
        verify_ledger(tmp_path)


# The report fields that its chain alone states.
ONCHAIN_FIELDS = ("onchain_tx_total", "onchain_tx_by_kind", "peak_onchain_tps",
                  "tokens_settled_by_pair", "fiat_cleared_by_pair")


@pytest.mark.parametrize("config", [ScenarioConfig(seed=42), ScenarioConfig(seed=7, mode="hr")],
                         ids=["lbo-seed-42", "hr-seed-7"])
def test_replayed_ledger_restates_the_reports_onchain_fields(config, tmp_path):
    run_scenario(config, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    verdict, bank = replay_ledger(tmp_path / "ledger.jsonl")
    assert verdict.valid
    figures = chain_figures(bank)
    assert {k: figures[k] for k in ONCHAIN_FIELDS} == {k: report[k] for k in ONCHAIN_FIELDS}
    assert report["tokens_settled_by_pair"] and report["fiat_cleared_by_pair"]


def test_events_after_the_horizon_do_not_run(tmp_path):
    """An arrival on day ``days``, with traffic, falls after the horizon: the
    report counts only what the saved chain holds."""
    cfg = small_config(days=3)
    trace = minimal_trace(cfg)
    trace.arrivals.append(Arrival(day=cfg.days, roamer="r-0000001", hmno="H001",
                                  home_country="C001", stay_days=2, silent=False))
    trace.traffic["r-0000001"] = [(cfg.days, 2_500_000)]
    report = run_scenario(cfg, tmp_path, trace=trace)
    verdict, bank = replay_ledger(tmp_path / "ledger.jsonl")
    assert verdict.valid
    figures = chain_figures(bank)
    assert {k: figures[k] for k in ONCHAIN_FIELDS} == {k: getattr(report, k) for k in ONCHAIN_FIELDS}
    assert report.onchain_tx_total == 6
    assert report.offchain_proofs_total == 25


def test_verify_ledger_detects_single_byte_edit(tmp_path):
    run_scenario(small_config(days=3), tmp_path)
    path = tmp_path / "ledger.jsonl"
    raw = bytearray(path.read_bytes())
    pos = len(raw) * 2 // 3
    raw[pos] ^= 0xFF
    path.write_bytes(bytes(raw))
    result = verify_ledger(path)
    assert not result.valid and result.exit_code == 1
    expected_height = bytes(raw[:pos]).count(b"\n")
    assert result.first_invalid_height == expected_height


def test_verify_ledger_truncated_line(tmp_path):
    run_scenario(small_config(days=3), tmp_path)
    path = tmp_path / "ledger.jsonl"
    raw = path.read_bytes()
    path.write_bytes(raw[:-25])
    result = verify_ledger(path)
    assert not result.valid
    assert "parse error" in result.reason


# Each rewrites a number of line 1 as an equal value of another type; the
# live ledger writes only ints there.
NON_INT_PROBES = {
    "string tx timestamp": lambda rec: rec["txs"][0].update(timestamp=str(rec["txs"][0]["timestamp"])),
    "float tx timestamp": lambda rec: rec["txs"][0].update(timestamp=float(rec["txs"][0]["timestamp"])),
    "float block height": lambda rec: rec.update(height=float(rec["height"])),
    "bool block height": lambda rec: rec.update(height=True),
    "float sealed_at": lambda rec: rec.update(sealed_at=float(rec["sealed_at"])),
}


@pytest.mark.parametrize("edit", NON_INT_PROBES.values(), ids=NON_INT_PROBES)
def test_verify_ledger_rejects_non_int_numbers(tmp_path, edit):
    run_scenario(small_config(seed=42, days=2), tmp_path)
    path = tmp_path / "ledger.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    result = verify_ledger(path)
    assert not result.valid and result.first_invalid_height == 1
    assert result.reason.startswith("parse error") and "must be an int" in result.reason


# --- config handling ----------------------------------------------------------------


def test_config_roundtrip_and_schema(tmp_path):
    cfg = small_config(mode="hr", charging={"model": "parity"})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ScenarioConfig.from_json_file(path)
    assert loaded == cfg


def test_config_schema_rejects_bad_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"days": 0}))
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_json_file(path)
    path.write_text(json.dumps({"unknown_knob": 1}))
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_json_file(path)
    path.write_text("not json")
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_json_file(path)


def test_schema_is_generated_from_the_fields():
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    assert list(SCENARIO_SCHEMA["properties"]) == [f.name for f in fields(ScenarioConfig)]
    assert ScenarioConfig().workload() == WorkloadConfig()


# One out-of-range value per bounded field, then NaN and infinity in number
# fields, then integral floats in integer fields (an integer is an exact int).
NAN, INF = float("nan"), float("inf")
OUT_OF_RANGE = [
    ("seed", -1), ("days", 0), ("scale", 0.0), ("roamers_per_vmno_day", 0),
    ("churn_fraction_range", (0.1, 1.5)), ("stay_days_median", 0.0), ("silent_fraction", 1.5),
    ("daily_traffic_median_bytes", 0), ("traffic_dispersion", -0.1),
    ("home_country_top10_share", 0.0), ("home_mno_top10_traffic_share", 1.01),
    ("num_home_countries", 0), ("num_home_mnos", 0),
    ("mode", "roaming"), ("vmno", ""), ("num_mnos", 0), ("initial_allotment", 0),
    ("expected_visit_bytes", 0), ("timelock_window_s", 0), ("inactivity_window_s", 0),
    ("tps_capacity", 0), ("concentration_hours", 0.0), ("avg_mno_factor", -0.5),
    ("stay_days_median", NAN), ("stay_days_median", INF), ("scale", NAN), ("scale", INF),
    ("concentration_hours", NAN), ("concentration_hours", INF), ("concentration_hours", -INF),
    ("traffic_dispersion", NAN), ("traffic_dispersion", INF), ("avg_mno_factor", NAN),
    ("avg_mno_factor", INF), ("silent_fraction", NAN), ("home_country_top10_share", NAN),
    ("home_mno_top10_traffic_share", NAN), ("churn_fraction_range", (NAN, 0.2)),
    ("churn_fraction_range", (0.1, INF)),
    ("days", 2.0), ("seed", 42.0), ("initial_allotment", 100.0), ("timelock_window_s", 86400.0),
]


def test_out_of_range_table_covers_every_bounded_field():
    bounds = {"minimum", "exclusiveMinimum", "maximum", "minLength", "enum", "items"}
    props = SCENARIO_SCHEMA["properties"]
    assert {name for name, frag in props.items() if bounds & frag.keys()} == \
        {name for name, _bad in OUT_OF_RANGE}
    numbers = {name for name, frag in props.items() if frag.get("items", frag).get("type") == "number"}
    has_nan = {name for name, bad in OUT_OF_RANGE
               if any(v != v for v in (bad if isinstance(bad, tuple) else (bad,)))}
    assert numbers == has_nan


@pytest.mark.parametrize("name, bad", OUT_OF_RANGE)
def test_out_of_range_field_is_rejected(name, bad, tmp_path):
    with pytest.raises(InvalidConfig, match=name):
        ScenarioConfig.from_dict({name: list(bad) if isinstance(bad, tuple) else bad})
    with pytest.raises(InvalidConfig, match=name):
        if name in {f.name for f in fields(WorkloadConfig)}:
            generate(WorkloadConfig(**{name: bad}))
        else:
            run_scenario(ScenarioConfig(**{name: bad}), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_unordered_churn_band_is_rejected():
    with pytest.raises(InvalidConfig, match="churn_fraction_range"):
        ScenarioConfig.from_dict({"churn_fraction_range": [0.3, 0.1]})
    with pytest.raises(InvalidConfig, match="churn_fraction_range"):
        generate(WorkloadConfig(churn_fraction_range=(0.3, 0.1)))


# --- the in-repo config check against jsonschema ---------------------------------

# Per fragment type, values of other JSON types.
WRONG_TYPE = {"integer": ["7", None, [1]], "number": ["0.5", None, {}], "string": [1, None, []],
              "boolean": [1, "true", None], "array": [0.5, "ab", {}], "object": [[], "x", 1]}


def in_range(frag):
    """Values that fit a knob fragment."""
    if "enum" in frag:
        return st.sampled_from(frag["enum"])
    kind = frag["type"]
    if kind == "integer":
        return st.integers(frag["minimum"], frag["minimum"] + 10**6)
    if kind == "number":
        lo = frag.get("minimum", frag.get("exclusiveMinimum"))
        hi = frag.get("maximum", 1e9)
        return st.floats(lo, hi, exclude_min="exclusiveMinimum" in frag) | st.integers(1, int(hi))
    if kind == "string":
        return st.text(min_size=frag.get("minLength", 0), max_size=4)
    if kind == "boolean":
        return st.booleans()
    if kind == "array":
        return st.lists(in_range(frag["items"]), min_size=frag["minItems"], max_size=frag["maxItems"])
    values = frag.get("additionalProperties")
    return st.dictionaries(st.text(max_size=3), in_range(values) if values else st.integers(), max_size=2)


def labelled(label, values):
    return st.tuples(st.just(label), values)


def faulty(frag):
    """(label, value) pairs of values the in-repo check rejects."""
    kind = frag.get("type")
    non_finite = st.sampled_from([NAN, INF, -INF])
    cases = [labelled("wrong type", st.sampled_from(WRONG_TYPE.get(kind, [1, None])))]
    if kind != "boolean":
        cases.append(labelled("bool", st.booleans()))
    if "enum" in frag:
        cases.append(labelled("out of range", st.text(max_size=5).filter(lambda v: v not in frag["enum"])))
    if kind == "integer":
        cases.append(labelled("out of range", st.integers(-10**6, frag["minimum"] - 1)))
        cases.append(labelled("integral float", in_range(frag).map(float)))
    if kind == "number":
        lo = frag.get("minimum", frag.get("exclusiveMinimum"))
        below = st.floats(-1e9, lo, exclude_max="minimum" in frag)
        if "exclusiveMinimum" in frag:
            below |= st.just(lo)
        cases.append(labelled("out of range", below))
        if "maximum" in frag:
            cases.append(labelled("out of range", st.floats(frag["maximum"], 1e9, exclude_min=True)))
        cases.append(labelled("non-finite", non_finite))
        # An int no float holds: jsonschema takes it as a number.
        cases.append(labelled("beyond float range", st.integers(2**1024, 2**1030)))
    if kind == "string" and frag.get("minLength"):
        cases.append(labelled("out of range", st.just("")))
    if kind == "array":
        item = in_range(frag["items"])
        cases.append(labelled("out of range", st.lists(item, max_size=frag["minItems"] - 1)))
        cases.append(labelled("out of range", st.lists(item, min_size=frag["maxItems"] + 1, max_size=4)))
        cases.append(labelled("out of range", st.tuples(item, st.floats(1.01, 10)).map(list)))
        cases.append(labelled("non-finite", st.tuples(item, non_finite).map(list)))
    if kind == "object" and "additionalProperties" in frag:
        # A map holding one faulty value, under a key that ends no path early.
        cases.append(faulty(frag["additionalProperties"]).map(lambda fault: (fault[0], {"k": fault[1]})))
    return st.one_of(cases)


def named_by_jsonschema(schema, data):
    """The field jsonschema's best-matching error names, or None if it accepts."""
    error = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(data))
    if error is None:
        return None
    if error.path:
        return error.path[0]
    if error.validator == "additionalProperties":
        (unknown,) = set(data) - set(schema["properties"])
        return unknown
    return "$"


def fragment_fields(schema):
    """One field per distinct fragment; of the objects, only maps."""
    return sorted({json.dumps(frag, sort_keys=True): name for name, frag in schema["properties"].items()
                   if frag.get("type") != "object" or "additionalProperties" in frag}.values())


# One field per distinct knob fragment, then the faults of the whole object.
FRAGMENT_FIELDS = fragment_fields(SCENARIO_SCHEMA)
UNKNOWN_KEY = st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
NON_OBJECT = st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=3),
                       st.none(), st.booleans())


def check_agreement(cls, fault, data):
    """Required fields and others in range, and at most one fault: the in-repo
    check of ``cls`` and jsonschema on ``config_schema(cls)`` both name its
    field (``$`` for the whole object, a missing key included)."""
    schema = config_schema(cls)
    props = schema["properties"]
    others = data.draw(st.lists(st.sampled_from(sorted(props)), unique=True, max_size=4))
    config = {name: data.draw(in_range(props[name])) for name in [*schema["required"], *others]}
    if fault == "non-object":
        label, config, culprit = fault, data.draw(NON_OBJECT), "$"
    elif fault == "unknown key":
        label, culprit = fault, data.draw(UNKNOWN_KEY.filter(lambda k: k not in props))
        config[culprit] = data.draw(st.integers())
    elif fault == "missing key":
        label, culprit = fault, "$"
        del config[data.draw(st.sampled_from(schema["required"]))]
    else:
        label, config[fault] = data.draw(labelled("valid", in_range(props[fault])) | faulty(props[fault]))
        culprit = None if label == "valid" else fault
    try:
        _check_schema(cls, config)
        named = None
    except InvalidConfig as exc:
        named = re.match(r"\$\.?([^:\[.]*)", str(exc)).group(1) or "$"
    assert named == culprit
    # Only the in-repo check rejects integral floats in integer fields, NaN,
    # infinity and ints beyond float range.
    if label in ("integral float", "non-finite", "beyond float range"):
        assert named_by_jsonschema(schema, config) in (None, culprit)
    else:
        assert named_by_jsonschema(schema, config) == culprit


@pytest.mark.parametrize("fault", [*FRAGMENT_FIELDS, "unknown key", "non-object"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_in_repo_check_agrees_with_jsonschema(fault, data):
    check_agreement(ScenarioConfig, fault, data)


# A report and each charging model: their fields, a missing key if one is
# required, an unknown key and a non-object.
OTHER_SCHEMAS = {"report": MetricsReport, "per_unit": PerUnit, "fixed": Fixed, "parity": Parity}
OTHER_FAULTS = [(name, fault) for name, cls in OTHER_SCHEMAS.items()
                for fault in [*fragment_fields(config_schema(cls)), "unknown key", "non-object",
                              *(["missing key"] if config_schema(cls)["required"] else [])]]


@pytest.mark.parametrize("name, fault", OTHER_FAULTS, ids=[f"{n}-{f}" for n, f in OTHER_FAULTS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_in_repo_check_agrees_with_jsonschema_on_reports_and_charging_specs(name, fault, data):
    check_agreement(OTHER_SCHEMAS[name], fault, data)


@pytest.mark.parametrize("cls", [ScenarioConfig, MetricsReport, PerUnit, Fixed, Parity])
def test_every_field_read_from_outside_declares_a_schema_fragment(cls):
    """So no field, a new report figure included, skips the one checker."""
    assert [f.name for f in fields(cls) if "schema" not in f.metadata] == []
    schema = config_schema(cls)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert list(schema["properties"]) == [f.name for f in fields(cls)]
    assert schema["required"] == [f.name for f in fields(cls)
                                  if f.default is MISSING and f.default_factory is MISSING]
    assert REPORT_SCHEMA is config_schema(MetricsReport) and SCENARIO_SCHEMA is config_schema(ScenarioConfig)


# Run in a fresh interpreter: simulate and calibrate draw the workload from
# the stdlib's random, verify and requirements generate none, so no command
# loads numpy, and nothing loads jsonschema.
LOAD_PROBE = """
import sys
import dice
assert "jsonschema" not in sys.modules, "import dice loaded jsonschema"
from dice.cli import main
config, out = sys.argv[1:]
for args in (["simulate", "--config", config, "--out-dir", out],
             ["calibrate", "--config", config],
             ["ledger", "verify", "--path", out + "/ledger.jsonl"],
             ["requirements", "--report", out + "/report.json"]):
    try:
        main(args)
    except SystemExit as exit:
        assert exit.code == 0, (args, exit.code)
    loaded = {"numpy", "jsonschema"} & set(sys.modules)
    assert not loaded, (args, sorted(loaded))
"""


def test_cli_commands_load_neither_numpy_nor_jsonschema(tmp_path):
    config = write_config(tmp_path, days=2)
    src = str(Path(dice.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", LOAD_PROBE, str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("sessions=")
    assert '"arrivals_total"' in done.stdout and "\nvalid" in done.stdout


# Specs a price cannot be computed from, or with a key the model does not read.
STRICT_CHARGING = [
    {"model": "per_unit", "rate": 0.04, "discount": 0.5},
    {"model": "per_unit", "rate": -1.0},
    {"model": "per_unit", "rate": float("nan")},
    {"model": "fixed", "flat": float("inf")},
    {"model": "fixed", "flat": 10.0, "discount": 3.0},
    {"model": "fixed", "flat": 10.0, "discount": -0.5},
    {"model": "parity", "tokens_per_mb": 0},
    {"model": "parity", "euro_per_mb": -1.0},
    # A value of the wrong type, never coerced: a string, a bool, or a
    # float for the integer tokens_per_mb.
    {"model": "per_unit", "rate": "0.04"},
    {"model": "per_unit", "rate": True},
    {"model": "fixed", "flat": "1e3"},
    {"model": "parity", "tokens_per_mb": 2.5},
    {"model": "parity", "tokens_per_mb": 10.0},
    # An int no float can hold.
    {"model": "per_unit", "rate": 10**400},
]


@pytest.mark.parametrize("charging", [{"model": "per_unit"}, {"model": "bogus"}, {"rate": 0.1},
                                      *STRICT_CHARGING])
def test_bad_charging_spec_is_rejected_on_load(charging, tmp_path):
    with pytest.raises(InvalidConfig, match="charging"):
        ScenarioConfig.from_dict({"charging": charging})
    with pytest.raises(InvalidConfig, match="charging"):
        run_scenario(ScenarioConfig(charging=charging), tmp_path / "out")
    assert not (tmp_path / "out").exists()


# --- CLI -----------------------------------------------------------------------------


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **kw):
    cfg = small_config(**kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_cli_simulate_and_verify(tmp_path, runner):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(cli_main, ["ledger", "verify", "--path", str(out / "ledger.jsonl")])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_cli_verify_reports_what_it_checked(tmp_path, runner):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    path = out / "ledger.jsonl"
    report = json.loads((out / "report.json").read_text())
    result = runner.invoke(cli_main, ["ledger", "verify", "--path", str(path)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[:5] == [
        "valid",
        f"blocks: {len(path.read_text().splitlines())}",
        "txs: " + ", ".join(f"{kind} {n}" for kind, n in sorted(report["onchain_tx_by_kind"].items())),
        f"signatures verified: {report['onchain_tx_total']}",
        f"lots replayed: {len(TokenBank.rebuild_from_ledger(load_blocks_jsonl(path)).lots)}",
    ]
    issued: Counter = Counter()
    for line in path.read_text().splitlines():
        for tx in json.loads(line)["txs"]:
            if tx["payload"]["kind"] == "issue":
                issued[tx["payload"]["issuer"]] += tx["payload"]["amount"]
    supply = [re.fullmatch(r"issuer (\S+): issued (\d+), circulating (\d+), burned (\d+)", line)
              for line in lines[5:]]
    assert all(supply)
    assert {m[1]: int(m[2]) for m in supply} == issued
    assert all(int(m[2]) == int(m[3]) + int(m[4]) for m in supply)
    assert report["onchain_tx_by_kind"]["redeem"] and any(int(m[4]) for m in supply)


def test_cli_simulate_whose_redeem_is_rejected_exits_one(tmp_path, runner):
    """A valid rate can price a claim beyond float range: the Redeem rule
    rejects its fiat, and the run ends with one line and writes nothing."""
    cfg_path = write_config(tmp_path, charging={"model": "per_unit", "rate": 1e308})
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    assert result.exit_code == 1, result.output
    assert result.stderr.splitlines() == [
        "error: PayloadRejected: redeem for V-001: fiat inf is not a finite non-negative number"]
    assert isinstance(result.exception, SystemExit)  # not a PayloadRejected traceback
    assert list(out.iterdir()) == []


def test_cli_verify_on_a_directory_exits_one(tmp_path, runner):
    result = runner.invoke(cli_main, ["ledger", "verify", "--path", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("i/o failure: ") and "Is a directory" in result.stderr
    assert isinstance(result.exception, SystemExit)  # not an IsADirectoryError traceback


@pytest.mark.parametrize("flag", ["--dump-proofs", "--dump-events"])
def test_cli_simulate_with_an_unwritable_dump_writes_no_output(tmp_path, runner, flag):
    """An empty dump path names the out dir itself: the run fails as an i/o
    failure before it writes any of its outputs."""
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--days", "2", "--out-dir", str(out), flag, ""])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("i/o failure: ") and "Is a directory" in result.stderr
    assert isinstance(result.exception, SystemExit)  # not an IsADirectoryError traceback
    assert not any((out / name).exists() for name in ("report.json", "ledger.jsonl", "settlement.csv"))


def test_cli_verify_tampered_exits_one(tmp_path, runner):
    cfg_path = write_config(tmp_path, days=3)
    out = tmp_path / "out"
    runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    path = out / "ledger.jsonl"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    result = runner.invoke(cli_main, ["ledger", "verify", "--path", str(path)])
    assert result.exit_code == 1
    assert "INVALID" in result.output


def test_cli_requirements(tmp_path, runner):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    result = runner.invoke(cli_main, ["requirements", "--report", str(out / "report.json")])
    assert result.exit_code == 0, result.output
    verdict = json.loads(result.output)
    assert verdict["passed"] is True
    assert verdict["daily_offchain_projected"] == pytest.approx(1e8)
    result = runner.invoke(cli_main, [
        "requirements", "--report", str(out / "report.json"), "--concentration-hours", "0.001",
    ])
    assert result.exit_code == 1


def test_cli_requirements_reads_knobs_from_the_report_config(tmp_path, runner):
    path = tmp_path / "report.json"
    path.write_text(fake_report(concentration_hours=0.01).to_json())
    result = runner.invoke(cli_main, ["requirements", "--report", str(path)])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["projected_peak_tps"] > 20_000
    path.write_text(fake_report(tps_capacity=10).to_json())
    result = runner.invoke(cli_main, ["requirements", "--report", str(path)])
    assert result.exit_code == 1 and json.loads(result.output)["capacity_tps"] == 10
    # A flag still overrides the config.
    result = runner.invoke(cli_main, ["requirements", "--report", str(path), "--tps-capacity", "20000"])
    assert result.exit_code == 0, result.output


def test_cli_calibrate(tmp_path, runner):
    cfg_path = write_config(tmp_path)
    result = runner.invoke(cli_main, ["calibrate", "--config", str(cfg_path)])
    assert result.exit_code == 0
    stats = json.loads(result.output)
    assert stats["arrivals_total"] > 0


def test_cli_mode_and_seed_overrides(tmp_path, runner):
    out = tmp_path / "out"
    result = runner.invoke(cli_main, [
        "simulate", "--out-dir", str(out), "--seed", "5", "--days", "3", "--mode", "hr",
    ])
    assert result.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["mode"] == "hr"
    assert report["config"]["seed"] == 5


def test_cli_usage_error_exits_two(runner):
    result = runner.invoke(cli_main, ["simulate"])  # missing --out-dir
    assert result.exit_code == 2


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--days", "0"]])
def test_cli_overrides_are_validated(tmp_path, runner, override):
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--out-dir", str(out), *override])
    assert result.exit_code == 2, result.output
    assert f"$.{override[0][2:]}" in result.output
    assert not out.exists()


def test_cli_integral_float_in_config_exits_two(tmp_path, runner):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"days": 2.0}))
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--config", str(path), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "$.days" in result.output
    assert not out.exists()


@pytest.mark.parametrize("charging", [{"model": "per_unit"}, {"model": "bogus"}, *STRICT_CHARGING])
def test_cli_bad_charging_spec_exits_two(tmp_path, runner, charging):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"charging": charging}))
    for command in (["simulate", "--out-dir", str(tmp_path / "out")], ["calibrate"]):
        result = runner.invoke(cli_main, [*command, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "charging" in result.output


def test_cli_requirements_default_traffic_is_the_assumptions_default(tmp_path, runner):
    path = tmp_path / "report.json"
    path.write_text(fake_report().to_json())
    default = runner.invoke(cli_main, ["requirements", "--report", str(path)])
    explicit = runner.invoke(cli_main, [
        "requirements", "--report", str(path),
        "--traffic-tb-per-day", str(VISITED_MNO_DAILY_BYTES / 1e12),
    ])
    assert default.exit_code == explicit.exit_code == 0
    assert default.output == explicit.output


@pytest.mark.parametrize("flag, value, field", [
    ("--concentration-hours", "0", "concentration_hours"),
    ("--avg-mno-factor", "0", "avg_mno_factor"),
    ("--avg-mno-factor", "-1", "avg_mno_factor"),
    ("--tps-capacity", "0", "tps_capacity"),
    ("--concentration-hours", "nan", "concentration_hours"),
    ("--concentration-hours", "inf", "concentration_hours"),
    ("--avg-mno-factor", "inf", "avg_mno_factor"),
    ("--traffic-tb-per-day", "nan", "--traffic-tb-per-day"),
    ("--traffic-tb-per-day", "inf", "--traffic-tb-per-day"),
    ("--traffic-tb-per-day", "-1", "--traffic-tb-per-day"),
])
def test_cli_requirements_overrides_are_validated(tmp_path, runner, flag, value, field):
    path = tmp_path / "report.json"
    path.write_text(fake_report().to_json())
    result = runner.invoke(cli_main, ["requirements", "--report", str(path), flag, value])
    assert result.exit_code == 2, result.output
    assert field in result.output


@pytest.mark.parametrize("flag, value, field", [
    ("--avg-mno-factor", "1e-320", "headroom_ratio"),          # the peak underflows to 0
    ("--avg-mno-factor", "1e308", "projected_peak_tps"),       # the daily count overflows
    ("--concentration-hours", "1e306", "headroom_ratio"),      # the window overflows
    ("--traffic-tb-per-day", "1e300", "--traffic-tb-per-day"),  # the byte count overflows
])
def test_cli_requirements_non_finite_figure_is_a_usage_error(tmp_path, runner, flag, value, field):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    result = runner.invoke(cli_main, ["requirements", "--report", str(out / "report.json"), flag, value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert field in result.stderr
    assert result.stdout == ""


# An int knob has no upper bound, so one can lie beyond float range.
@pytest.mark.parametrize("report_kw, args, field", [
    ({}, ["--tps-capacity", str(10**400)], "tps_capacity"),
    ({"num_mnos": 10**400}, [], "num_mnos"),
    ({"onchain": 10**400}, [], "onchain_tx_total"),
], ids=["tps-capacity-flag", "report-num-mnos", "report-onchain-total"])
def test_cli_requirements_int_beyond_float_range_is_a_usage_error(tmp_path, runner, report_kw,
                                                                   args, field):
    path = tmp_path / "report.json"
    path.write_text(fake_report(**report_kw).to_json())
    result = runner.invoke(cli_main, ["requirements", "--report", str(path), *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # not an OverflowError traceback
    assert field in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("field", ["num_mnos", "roamers_per_vmno_day"])
def test_cli_int_beyond_float_range_in_a_config_is_a_usage_error(tmp_path, runner, field):
    """Rejected before any work: nothing is written, and no OverflowError
    traceback ends the run (extrapolation or the generator met it)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"days": 2, field: 10**400}))
    out = tmp_path / "out"
    commands = [["simulate", "--out-dir", str(out)]]
    if field == "roamers_per_vmno_day":
        commands.append(["calibrate"])
    for command in commands:
        result = runner.invoke(cli_main, [*command, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert field in result.stderr and result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("config, field", [
    # p_depart rounds to 0, so no stay could end: rejected by validate.
    ({"days": 2, "stay_days_median": 1e17}, "stay_days_median"),
    # exp() of a traffic draw overflows: rejected where the draw is made.
    ({"days": 2, "traffic_dispersion": 1e300}, "traffic_dispersion"),
], ids=["stay-median-1e17", "dispersion-1e300"])
def test_cli_config_the_generator_cannot_draw_from_is_a_usage_error(tmp_path, runner, config, field):
    """A config that fits the schema but that the generator cannot draw a
    trace from: named, with no ZeroDivisionError or OverflowError traceback,
    and no output file written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    for command in (["simulate", "--out-dir", str(out)], ["calibrate"]):
        result = runner.invoke(cli_main, [*command, "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert field in result.stderr and result.stdout == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("config, figure", [
    ({"days": 1, "num_mnos": 10**306}, "onchain_tx_total"),              # the int product overflows
    # The quotient overflows: the one roamer sends exactly the 1 MB median on day 0.
    ({"days": 2, "scale": 1e-300, "silent_fraction": 0, "traffic_dispersion": 0}, "bytes_serviced"),
], ids=["num-mnos-1e306", "scale-1e-300"])
def test_cli_simulate_whose_extrapolation_leaves_float_range_is_a_usage_error(tmp_path, runner,
                                                                             config, figure):
    """A valid config whose consortium figure no float holds: named after
    the run, with no OverflowError traceback, and nothing written."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(cli_main, ["simulate", "--config", str(path), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"extrapolated {figure} is beyond float range" in result.stderr
    assert result.stdout == "" and list(out.iterdir()) == []


def test_cli_requirements_prints_strict_json(tmp_path, runner):
    def no_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    runner.invoke(cli_main, ["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    result = runner.invoke(cli_main, ["requirements", "--report", str(out / "report.json")])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout, parse_constant=no_constant)["passed"] is True


def report_json(**figures):
    """``fake_report()``'s JSON with ``figures`` in place of its own."""
    return json.dumps({**fake_report().to_dict(), **figures})


@pytest.mark.parametrize("content", [
    "not json", "[]", fake_report(concentration_hours=0).to_json(),
    # An int figure is an exact int: not a string, a list or a bool.
    fake_report(onchain="x").to_json(), fake_report(onchain=[1]).to_json(),
    fake_report(onchain=True).to_json(),
    # The maps are read against REPORT_SCHEMA too: counts are non-negative
    # ints, and fiat is a finite non-negative number.
    report_json(tokens_settled_by_pair={"V|H": -1}), report_json(onchain_tx_by_kind={"issue": 1.5}),
    report_json(extrapolated={"onchain_tx_total": "x"}), report_json(fiat_cleared_by_pair={"V|H": "1"}),
    report_json(fiat_cleared_by_pair={"V|H": 10**400}),
    # Every figure is required, and no other is read.
    json.dumps({k: v for k, v in fake_report().to_dict().items() if k != "extrapolated"}),
    report_json(bonus=1),
])
def test_cli_requirements_unreadable_report_exits_one(tmp_path, runner, content):
    path = tmp_path / "report.json"
    path.write_text(content)
    for args in ([], ["--concentration-hours", "0"]):
        result = runner.invoke(cli_main, ["requirements", "--report", str(path), *args])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "cannot read report" in result.output
