"""Scenario runner, metrics aggregation and the requirements audit.

One simulated visited MNO is driven at desk scale through the full
protocol for every synthetic roamer; results extrapolate to the
consortium-wide figures used for the throughput feasibility check.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Optional

from . import codec, settlement
from .channel import DEFAULT_INACTIVITY_WINDOW, DEFAULT_TIMELOCK_WINDOW
from .errors import Expired, InvalidConfig, IoFailure, LedgerParseError
from .ledger import ChannelClose, Redeem, ValidityReport, load_blocks_jsonl
from .protocol import ACTIVE, CHANNEL_OPEN, HR, LBO, SETTLED, DiceEngine, events_to_jsonl
from .settlement import make_claim, model_from_dict, write_settlement_csv
from .tokenbank import TOKEN_BLOCK_BYTES, TokenBank, tokens_for_bytes, verify_blocks
from .workload import COUNT, POSITIVE, SessionEventTrace, WorkloadConfig, config_schema, generate, knob

DAY = 86_400


@dataclass
class ScenarioConfig(WorkloadConfig):
    """A whole scenario: the workload knobs plus protocol and projection knobs."""

    mode: str = knob(LBO, {"enum": [LBO, HR]})
    vmno: str = knob("V-001", {"type": "string", "minLength": 1})
    num_mnos: int = knob(800, COUNT)  # consortium size, used only to extrapolate
    initial_allotment: int = knob(100, COUNT)
    expected_visit_bytes: int = knob(2_500_000, COUNT)
    charging: dict = knob({"model": "per_unit", "rate": 0.04}, {"type": "object"})
    timelock_window_s: int = knob(DEFAULT_TIMELOCK_WINDOW, COUNT)
    inactivity_window_s: int = knob(DEFAULT_INACTIVITY_WINDOW, COUNT)
    round_up_final_block: bool = knob(True, {"type": "boolean"})
    tps_capacity: int = knob(20_000, COUNT)
    concentration_hours: float = knob(4.0, POSITIVE)
    # Ratio of the average consortium member's inbound-roaming volume to the
    # modeled (medium-large) operator's; reconciles the per-operator counts
    # with the published consortium-wide aggregates.
    avg_mno_factor: float = knob(0.02, POSITIVE)

    def validate(self) -> None:
        """The workload checks, plus a charging spec that settlement can read."""
        super().validate()
        try:
            model_from_dict(self.charging)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"$.charging: {exc!r}") from None

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(**{f.name: getattr(self, f.name) for f in fields(WorkloadConfig)})

    @classmethod
    def from_json_file(cls, path=None, **overrides) -> "ScenarioConfig":
        """A JSON file's config (defaults if no path); ``overrides`` apply before validation."""
        raw = {}
        if path is not None:
            try:
                raw = json.loads(Path(path).read_text(encoding="utf-8"))
            except OSError as exc:
                raise IoFailure(str(exc)) from None
            except json.JSONDecodeError as exc:
                raise InvalidConfig(f"not valid JSON: {exc}") from None
        if isinstance(raw, dict):
            raw = {**raw, **overrides}
        return cls.from_dict(raw)


SCENARIO_SCHEMA = config_schema(ScenarioConfig)


# --- metrics -----------------------------------------------------------------


@dataclass
class MetricsReport:
    config: dict
    onchain_tx_total: int
    onchain_tx_by_kind: dict[str, int]
    offchain_proofs_total: int
    peak_onchain_tps: int
    sessions_completed: int
    silent_sessions: int
    bytes_serviced: int
    tokens_settled_by_pair: dict[str, int]
    fiat_cleared_by_pair: dict[str, float]
    extrapolated: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json_file(cls, path) -> "MetricsReport":
        """A written report; its config must validate (raises InvalidConfig)."""
        with open(path, "r", encoding="utf-8") as fh:
            report = cls(**json.load(fh))
        ScenarioConfig.from_dict(report.config)
        return report


def extrapolate(raw: float, scale: float, num_mnos: int) -> int:
    """Desk-scale count -> consortium-wide count; round-half-up via round()."""
    return int(round(raw * num_mnos / scale))


# --- scenario runner -----------------------------------------------------------

# Event priorities fix the order of same-second actions.
_P_BOUNDARY, _P_ARRIVE, _P_TRAFFIC, _P_DEPART, _P_CLOSEOUT, _P_REDEEM = range(6)


def run_scenario(
    config: ScenarioConfig,
    out_dir,
    *,
    trace: Optional[SessionEventTrace] = None,
    dump_proofs: bool | str = False,
    dump_events: bool | str = False,
    on_seal=None,
) -> MetricsReport:
    """Drive every roamer in the trace through the protocol end to end.

    Deterministic for a fixed config; ``trace`` may inject a handcrafted
    workload in place of the generated one.  ``on_seal`` (if given) is
    called with the engine after every sealed block, for audit hooks.
    ``dump_proofs``/``dump_events`` accept True (default file name in
    out_dir) or an explicit path.
    """
    config.validate()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    if trace is None:
        trace = generate(config.workload())

    hmnos = sorted({a.hmno for a in trace.arrivals})
    roamers = [a.roamer for a in trace.arrivals]
    engine = DiceEngine(
        [config.vmno, *hmnos], roamers,
        seed=config.seed,
        timelock_window=config.timelock_window_s,
        inactivity_window=config.inactivity_window_s,
        round_up_final_block=config.round_up_final_block,
    )
    engine.channels.keep_proofs = bool(dump_proofs)
    engine.keep_events = bool(dump_events)
    model = model_from_dict(config.charging)
    for hmno in hmnos:
        engine.register_agreement(hmno, config.vmno, (hmno,), config.charging, 0)

    offset_rng = random.Random(codec.derive_seed(config.seed, "offsets"))
    offsets = {a.roamer: offset_rng.randrange(DAY) for a in trace.arrivals}

    events: list[tuple[int, int, int, str, tuple]] = []
    seq = 0

    def push(t: int, prio: int, action: str, payload: tuple) -> None:
        nonlocal seq
        events.append((t, prio, seq, action, payload))
        seq += 1

    horizon = config.days * DAY
    for a in trace.arrivals:
        t_arr = a.day * DAY + offsets[a.roamer]
        push(t_arr, _P_ARRIVE, "arrive", (a,))
        for day, nbytes in trace.traffic.get(a.roamer, ()):
            push(day * DAY + offsets[a.roamer], _P_TRAFFIC, "traffic", (a.roamer, nbytes))
        dep_day = a.day + a.stay_days
        if dep_day <= config.days:
            push(dep_day * DAY + offsets[a.roamer], _P_DEPART, "depart", (a.roamer,))
    for d in range(1, config.days + 1):
        push(d * DAY, _P_BOUNDARY, "boundary", ())
    push(horizon, _P_CLOSEOUT, "closeout", ())
    push(horizon, _P_REDEEM, "redeem", ())
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    session_of: dict[str, str] = {}
    settlement_rows: list[dict] = []

    def seal(now: int) -> None:
        block = engine.seal_if_pending(now)
        if block is not None and on_seal is not None:
            on_seal(engine)

    for now, _prio, _seq, action, payload in events:
        if action == "arrive":
            (a,) = payload
            wallets = engine.bank.create_identities(a.hmno, a.roamer, 1, [config.initial_allotment], now)
            session = engine.new_session(a.roamer, wallets[0], a.hmno, config.vmno, config.mode, now)
            session_of[a.roamer] = session.session_id
            engine.attach_check(session, now)
            if config.mode == LBO:
                engine.provision_profile(session)
            deposit = min(
                engine.bank.balance(wallets[0], a.hmno),
                tokens_for_bytes(config.expected_visit_bytes),
            )
            engine.open_session_channel(session, deposit, now)
        elif action == "traffic":
            roamer, nbytes = payload
            session = engine.sessions[session_of[roamer]]
            if session.state in (CHANNEL_OPEN, ACTIVE):
                try:
                    engine.session_traffic(session, nbytes, now)
                except Expired:
                    pass  # channel contract lapsed; the sweep will close it
        elif action == "depart":
            (roamer,) = payload
            session = engine.sessions[session_of[roamer]]
            if session.state in (CHANNEL_OPEN, ACTIVE):
                engine.detach(session, now)
        elif action == "boundary":
            engine.timeout_sweep(now)
            seal(now)
        elif action == "closeout":
            for session in engine.sessions.values():
                if session.state in (CHANNEL_OPEN, ACTIVE):
                    engine.detach(session, now)
        elif action == "redeem":
            for hmno in hmnos:
                claim = make_claim(engine.bank, model, config.vmno, hmno)
                if claim is None:
                    continue
                settlement.redeem(engine, claim, now)
                settlement_rows.append({
                    "period_start": 0,
                    "period_end": horizon,
                    "vmno": config.vmno,
                    "hmno": hmno,
                    "tokens": claim.tokens,
                    "model": config.charging["model"],
                    "fiat": f"{claim.fiat_due:.6f}",
                })
            seal(now)

    def resolve(option, default_name):
        name = option if isinstance(option, str) else default_name
        path = Path(name)
        return path if path.is_absolute() else out_dir / path

    report = _build_report(config, engine, trace)
    try:
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        engine.ledger.save_jsonl(out_dir / "ledger.jsonl")
        write_settlement_csv(out_dir / "settlement.csv", settlement_rows)
        if dump_proofs:
            engine.channels.dump_proofs(resolve(dump_proofs, "proofs.jsonl"))
        if dump_events:
            all_events = [ev for s in engine.sessions.values() for ev in s.events]
            all_events.sort(key=lambda ev: (ev["time"], ev["session_id"]))
            events_to_jsonl(all_events, resolve(dump_events, "events.jsonl"))
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    return report


def _build_report(config: ScenarioConfig, engine: DiceEngine, trace: SessionEventTrace) -> MetricsReport:
    figures = chain_figures(engine.bank)
    counts = {
        "onchain_tx_total": figures["onchain_tx_total"],
        "offchain_proofs_total": engine.channels.proofs_accepted,
        "sessions_completed": sum(1 for s in engine.sessions.values() if s.state == SETTLED),
        "bytes_serviced": engine.channels.serviced_bytes_total(),
        "peak_onchain_tps": figures["peak_onchain_tps"],
    }
    return MetricsReport(
        config=config.to_dict(),
        onchain_tx_by_kind=figures["onchain_tx_by_kind"],
        silent_sessions=sum(1 for a in trace.arrivals if a.silent),
        tokens_settled_by_pair=figures["tokens_settled_by_pair"],
        fiat_cleared_by_pair=figures["fiat_cleared_by_pair"],
        extrapolated={k: extrapolate(v, config.scale, config.num_mnos) for k, v in counts.items()},
        **counts,
    )


def chain_figures(bank: TokenBank) -> dict:
    """What the chain of ``bank.ledger`` states, in one walk of its sealed and
    pending txs: the txs by kind, their total and peak per second, the tokens
    settled and the fiat cleared per "vmno|hmno" pair, the blocks, the lots
    and the supply per issuer.  The report and ``dice ledger verify`` read it."""
    ledger = bank.ledger
    by_kind: Counter = Counter()
    per_second: Counter = Counter()
    tokens_by_pair: dict[str, int] = {}
    fiat_by_pair: dict[str, float] = {}
    for tx in chain(ledger.all_txs(), ledger.pending):
        p = tx.payload
        by_kind[p.kind] += 1
        per_second[tx.timestamp] += 1
        if isinstance(p, ChannelClose) and p.paid:
            opened = bank.channel_opens[p.channel]
            key = f"{opened.vmno}|{bank.wallets[opened.wallet].home_mno}"
            tokens_by_pair[key] = tokens_by_pair.get(key, 0) + p.paid
        elif isinstance(p, Redeem):
            key = f"{p.vmno}|{p.hmno}"
            fiat_by_pair[key] = fiat_by_pair.get(key, 0.0) + p.fiat
    circulating = bank.circulating_by_issuer()
    issuers = sorted(set(bank.issued_by) | set(circulating) | set(bank.burned_by))
    return {
        "onchain_tx_total": by_kind.total(),
        "onchain_tx_by_kind": dict(sorted(by_kind.items())),
        "peak_onchain_tps": max(per_second.values(), default=0),
        "tokens_settled_by_pair": dict(sorted(tokens_by_pair.items())),
        "fiat_cleared_by_pair": dict(sorted(fiat_by_pair.items())),
        "blocks": len(ledger.chain),
        "lots_replayed": len(bank.lots),
        "supply_by_issuer": {m: {"issued": bank.issued_by.get(m, 0), "circulating": circulating.get(m, 0),
                                 "burned": bank.burned_by.get(m, 0)} for m in issuers},
    }


# --- requirements audit ----------------------------------------------------------


@dataclass
class RequirementsAssumptions:
    # A field named after a config knob overrides the report's value; None
    # keeps it.
    tps_capacity: Optional[int] = None
    concentration_hours: Optional[float] = None
    visited_mno_daily_bytes: Optional[int] = 10_000_000_000_000  # 10 TB/day
    avg_mno_factor: Optional[float] = None


@dataclass
class RequirementsVerdict:
    capacity_tps: int
    projected_peak_tps: float
    headroom_ratio: float
    daily_onchain_projected: float        # consortium-wide
    daily_offchain_projected: float       # per visited MNO
    daily_offchain_consortium: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_requirements(report: MetricsReport, assumptions: RequirementsAssumptions) -> RequirementsVerdict:
    """Extrapolate the desk-scale run to consortium scale and test it
    against the reference ledger capacity.  The knob overrides are validated
    with the report's config, so a bad one raises InvalidConfig naming it."""
    overrides = {k: v for k, v in asdict(assumptions).items()
                 if v is not None and k in SCENARIO_SCHEMA["properties"]}
    cfg = ScenarioConfig.from_dict({**report.config, **overrides})
    factor = float(cfg.avg_mno_factor)
    tps_capacity = int(cfg.tps_capacity)
    concentration_hours = float(cfg.concentration_hours)

    onchain_daily_full = report.onchain_tx_total / cfg.days / cfg.scale
    daily_onchain = onchain_daily_full * cfg.num_mnos * factor
    if assumptions.visited_mno_daily_bytes is not None:
        daily_offchain = assumptions.visited_mno_daily_bytes / TOKEN_BLOCK_BYTES
    else:
        daily_offchain = report.offchain_proofs_total / cfg.days / cfg.scale
    daily_offchain_consortium = daily_offchain * cfg.num_mnos * factor

    peak = daily_onchain / (concentration_hours * 3600.0)
    return RequirementsVerdict(
        capacity_tps=tps_capacity,
        projected_peak_tps=peak,
        headroom_ratio=tps_capacity / peak if peak > 0 else float("inf"),
        daily_onchain_projected=daily_onchain,
        daily_offchain_projected=daily_offchain,
        daily_offchain_consortium=daily_offchain_consortium,
        passed=peak < tps_capacity,
    )


# --- persisted-ledger verification --------------------------------------------------


def verify_ledger(path) -> ValidityReport:
    """Full integrity pass over a persisted chain: every block replayed
    through a fresh ledger with a token bank attached (``verify_blocks``), so
    each chain rule and token rule the live engine enforces is checked, then
    a supply-closure cross-check.  Only the verdict is kept."""
    return replay_ledger(path)[0]


def replay_ledger(path) -> tuple[ValidityReport, Optional[TokenBank]]:
    """``verify_ledger``'s verdict, and the bank its replay ended with (None
    if nothing was replayed); ``bank.ledger`` is the replayed ledger, and
    ``chain_figures(bank)`` states what the replay checked."""
    try:
        blocks = load_blocks_jsonl(path)
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    except LedgerParseError as exc:
        return ValidityReport(False, exc.line, f"parse error: {exc}"), None
    verdict, bank = verify_blocks(blocks)
    if verdict.valid and not bank.supply_closure_ok():
        verdict = ValidityReport(False, None, "supply closure violated")
    return verdict, bank
