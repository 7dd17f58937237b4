"""Scenario runner, metrics aggregation and the requirements audit.

One simulated visited MNO is driven at desk scale through the full
protocol for every synthetic roamer; results extrapolate to the
consortium-wide figures used for the throughput feasibility check.

The two batch entry points, ``run_scenario`` (outputs included) and
``replay_ledger`` (so ``verify_ledger`` too), run with the cyclic garbage
collector paused.  Their objects form no reference cycles (the ledger
holds its bank through a weakref for this reason), so reference counting
frees everything they drop, and each collection the collector would start
there scans a heap it cannot shrink.  The collector's state on entry is
restored on return or raise; nothing forces a collection.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import random
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Optional

from . import codec, settlement
from .channel import DEFAULT_INACTIVITY_WINDOW, DEFAULT_TIMELOCK_WINDOW
from .errors import Expired, InvalidConfig, IoFailure, LedgerParseError
from .ledger import ChannelClose, Redeem, ValidityReport, load_blocks_jsonl
from .protocol import HR, LBO, OPEN_STATES, SETTLED, DiceEngine, RoamerSession, events_to_jsonl
from .settlement import make_claim, write_settlement_csv
from .tokenbank import TOKEN_BLOCK_BYTES, TokenBank, model_from_dict, tokens_for_bytes, verify_blocks
from .workload import (AMOUNT, COUNT, POSITIVE, TALLY, SessionEventTrace, WorkloadConfig, _check_schema,
                       _require_float_range, config_schema, generate, knob)

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
        """The workload checks, plus a charging spec that the bank can price."""
        super().validate()
        try:
            model_from_dict(self.charging)
        except InvalidConfig as exc:  # its path re-rooted at this field
            raise InvalidConfig(f"$.charging{str(exc)[1:]}") from None

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


TALLIES = {"type": "object", "additionalProperties": TALLY}  # counts by name


@dataclass
class MetricsReport:
    config: dict = knob(MISSING, {"type": "object"})  # read as a ScenarioConfig
    onchain_tx_total: int = knob(MISSING, TALLY)
    onchain_tx_by_kind: dict[str, int] = knob(MISSING, TALLIES)
    offchain_proofs_total: int = knob(MISSING, TALLY)
    peak_onchain_tps: int = knob(MISSING, TALLY)
    sessions_completed: int = knob(MISSING, TALLY)
    silent_sessions: int = knob(MISSING, TALLY)
    bytes_serviced: int = knob(MISSING, TALLY)
    tokens_settled_by_pair: dict[str, int] = knob(MISSING, TALLIES)
    fiat_cleared_by_pair: dict[str, float] = knob(MISSING, {"type": "object", "additionalProperties": AMOUNT})
    extrapolated: dict[str, int] = knob(MISSING, TALLIES)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json_file(cls, path) -> "MetricsReport":
        """A report read against ``REPORT_SCHEMA``, its config validated; raises InvalidConfig."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        _check_schema(cls, raw)
        ScenarioConfig.from_dict(raw["config"])
        return cls(**raw)


REPORT_SCHEMA = config_schema(MetricsReport)


def extrapolate(raw: float, scale: float, num_mnos: int) -> int:
    """Desk-scale count -> consortium-wide count, rounded half to even by ``round``."""
    return int(round(raw * num_mnos / scale))


# --- scenario runner -----------------------------------------------------------


def _collector_paused(fn):
    """``fn`` run with the cyclic collector off, and back on afterwards only
    if it was on when ``fn`` was entered."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
    return paused


# Event actions, in the order they run when they fall in the same second.
_BOUNDARY, _ARRIVE, _TRAFFIC, _DEPART = range(4)


@_collector_paused
def run_scenario(
    config: ScenarioConfig,
    out_dir,
    *,
    trace: Optional[SessionEventTrace] = None,
    dump_proofs=None,
    dump_events=None,
    on_seal=None,
) -> MetricsReport:
    """Drive every roamer in the trace through the protocol end to end.

    Each roamer acts at its own random second of the day.  Day boundaries
    sweep idle and expired channels and seal a block; events after the
    horizon (``days`` days) are not run.  After the last event, the sessions
    still open are closed at the horizon, the VMNO redeems what it earned
    from each home MNO, and the final block is sealed.  ``settlement.csv``
    states those redeems, read from the chain.

    Deterministic for a fixed config; ``trace`` may inject a handcrafted
    workload in place of the generated one.  ``on_seal`` (if given) is
    called with the engine after every sealed block, for audit hooks.
    ``dump_proofs``/``dump_events``, if given, are the paths the accepted
    proofs and the session events are written to, a relative one in out_dir.
    They are written first, so a dump that cannot be written fails the run
    before ``report.json``, ``ledger.jsonl`` and ``settlement.csv`` are.
    ``report.json``, ``ledger.jsonl`` and ``settlement.csv`` are each
    written to a new file (see ``_unlinked``); a dump path, which may name a
    device, a FIFO or a link anywhere, is opened as it is.
    """
    config.validate()
    _require_float_range(num_mnos=config.num_mnos)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    if trace is None:
        trace = generate(config.workload())

    hmnos = sorted({a.hmno for a in trace.arrivals})
    roamers = [a.roamer for a in trace.arrivals]
    arrived = set(roamers)
    for roamer in trace.traffic:
        if roamer not in arrived:
            raise InvalidConfig(f"trace lists traffic of roamer {roamer}, who has no arrival")
    engine = DiceEngine(
        [config.vmno, *hmnos], roamers,
        seed=config.seed,
        timelock_window=config.timelock_window_s,
        inactivity_window=config.inactivity_window_s,
        round_up_final_block=config.round_up_final_block,
    )
    engine.channels.keep_proofs = dump_proofs is not None
    engine.keep_events = dump_events is not None
    for hmno in hmnos:
        engine.register_agreement(hmno, config.vmno, (hmno,), config.charging, 0)

    # (time, action, arrival or roamer, bytes); the stable sort keeps tied
    # events in the order they are listed here.
    horizon = config.days * DAY
    offset_rng = random.Random(codec.derive_seed(config.seed, "offsets"))
    events: list[tuple] = [(d * DAY, _BOUNDARY, None, 0) for d in range(1, config.days + 1)]
    for a in trace.arrivals:
        offset = offset_rng.randrange(DAY)
        events.append((a.day * DAY + offset, _ARRIVE, a, 0))
        events += [(day * DAY + offset, _TRAFFIC, a.roamer, nbytes)
                   for day, nbytes in trace.traffic.get(a.roamer, ())]
        events.append(((a.day + a.stay_days) * DAY + offset, _DEPART, a.roamer, 0))
    events = sorted((e for e in events if e[0] <= horizon), key=lambda e: e[:2])

    def seal(now: int) -> None:
        if engine.ledger.pending:
            engine.ledger.seal_block(now)
            if on_seal is not None:
                on_seal(engine)

    # A fresh wallet holds exactly its allotment.
    deposit = min(config.initial_allotment, tokens_for_bytes(config.expected_visit_bytes))
    sessions: dict[str, RoamerSession] = {}
    for now, action, subject, nbytes in events:
        if action == _ARRIVE:
            a = subject
            wallets = engine.bank.create_identities(a.hmno, a.roamer, 1, [config.initial_allotment], now)
            session = engine.new_session(a.roamer, wallets[0], a.hmno, config.vmno, config.mode, now)
            sessions[a.roamer] = session
            engine.attach_check(session, now)
            if config.mode == LBO:
                engine.provision_profile(session)
            engine.open_session_channel(session, deposit, now)
        elif action == _BOUNDARY:
            engine.timeout_sweep(now)
            seal(now)
        elif (session := sessions.get(subject)) is None:
            what = "departure" if action == _DEPART else "traffic"
            raise InvalidConfig(f"trace lists {what} of roamer {subject} on day {now // DAY}, "
                                "before its arrival")
        elif session.state not in OPEN_STATES:
            continue  # a sweep or an earlier departure settled it
        elif action == _DEPART:
            engine.detach(session, now)
        else:
            try:
                engine.session_traffic(session, nbytes, now)
            except Expired:
                pass  # channel contract lapsed; the sweep will close it

    for session in engine.sessions.values():
        if session.state in OPEN_STATES:
            engine.detach(session, horizon)
    for hmno in hmnos:
        claim = make_claim(engine.bank, config.vmno, hmno)
        if claim is not None:
            settlement.redeem(engine, claim, horizon)
    seal(horizon)

    report = _build_report(config, engine, trace)
    try:
        if dump_proofs is not None:
            engine.channels.dump_proofs(out_dir / dump_proofs)
        if dump_events is not None:
            all_events = [ev for s in engine.sessions.values() for ev in s.events]
            all_events.sort(key=lambda ev: (ev["time"], ev["session_id"]))
            events_to_jsonl(all_events, out_dir / dump_events)
        _unlinked(out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        engine.ledger.save_jsonl(_unlinked(out_dir / "ledger.jsonl"))
        write_settlement_csv(_unlinked(out_dir / "settlement.csv"), engine.bank)
    except OSError as exc:
        raise IoFailure(str(exc)) from None
    return report


def _unlinked(path: Path) -> Path:
    """``path``, after unlinking the regular file there, if any, so that the
    output is written to a new file, not by truncating the old one.  On ext4
    with ``auto_da_alloc`` (its default), truncating a file written moments
    ago forces its old data to disk first, which stalled a rerun into the
    same out dir by tens of milliseconds per output.  A hard link to the old
    file keeps the old bytes; a symlink, a FIFO or a device is written
    through, as before."""
    if path.is_file() and not path.is_symlink():
        path.unlink()
    return path


def _build_report(config: ScenarioConfig, engine: DiceEngine, trace: SessionEventTrace) -> MetricsReport:
    figures = chain_figures(engine.bank)
    counts = {
        "onchain_tx_total": figures["onchain_tx_total"],
        "offchain_proofs_total": engine.channels.proofs_accepted,
        "sessions_completed": sum(1 for s in engine.sessions.values() if s.state == SETTLED),
        "bytes_serviced": engine.channels.serviced_bytes_total(),
        "peak_onchain_tps": figures["peak_onchain_tps"],
    }
    extrapolated = {}
    for name, raw in counts.items():
        try:
            extrapolated[name] = extrapolate(raw, config.scale, config.num_mnos)
        except OverflowError:  # num_mnos / scale took it beyond float range
            raise InvalidConfig(f"extrapolated {name} is beyond float range; every figure must be finite") from None
    return MetricsReport(
        config=config.to_dict(),
        onchain_tx_by_kind=figures["onchain_tx_by_kind"],
        silent_sessions=sum(1 for a in trace.arrivals if a.silent),
        tokens_settled_by_pair=figures["tokens_settled_by_pair"],
        fiat_cleared_by_pair=figures["fiat_cleared_by_pair"],
        extrapolated=extrapolated,
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
    return {
        "onchain_tx_total": by_kind.total(),
        "onchain_tx_by_kind": dict(sorted(by_kind.items())),
        "peak_onchain_tps": max(per_second.values(), default=0),
        "tokens_settled_by_pair": dict(sorted(tokens_by_pair.items())),
        "fiat_cleared_by_pair": dict(sorted(fiat_by_pair.items())),
        "blocks": len(ledger.chain),
        "lots_replayed": len(bank.lots),
        "supply_by_issuer": bank.supply_by_issuer(),
    }


# --- requirements audit ----------------------------------------------------------


VISITED_MNO_DAILY_BYTES = 10_000_000_000_000  # 10 TB/day of roamer traffic


@dataclass
class RequirementsVerdict:
    capacity_tps: int
    projected_peak_tps: float
    headroom_ratio: Optional[float]      # None with no on-chain load
    daily_onchain_projected: float        # consortium-wide
    daily_offchain_projected: float       # per visited MNO
    daily_offchain_consortium: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def check_requirements(report: MetricsReport,
                       visited_mno_daily_bytes: int = VISITED_MNO_DAILY_BYTES) -> RequirementsVerdict:
    """Extrapolate the desk-scale run to consortium scale and test it
    against the reference ledger capacity.  Every projection knob is read
    from the report's config, which is validated first, so a bad one raises
    InvalidConfig naming it; so does a verdict figure that is not finite,
    naming the first one, and an int the projection would have to turn into
    a float beyond its range.  The visited MNO's daily off-chain payments
    come from ``visited_mno_daily_bytes``.  A report with no on-chain load
    passes, with no headroom ratio (None)."""
    cfg = ScenarioConfig.from_dict(report.config)
    tps_capacity, factor = cfg.tps_capacity, cfg.avg_mno_factor
    _require_float_range(tps_capacity=tps_capacity, num_mnos=cfg.num_mnos,
                         onchain_tx_total=report.onchain_tx_total,
                         offchain_proofs_total=report.offchain_proofs_total)

    onchain_daily_full = report.onchain_tx_total / cfg.days / cfg.scale
    daily_onchain = onchain_daily_full * cfg.num_mnos * factor
    daily_offchain = visited_mno_daily_bytes / TOKEN_BLOCK_BYTES
    daily_offchain_consortium = daily_offchain * cfg.num_mnos * factor

    peak = daily_onchain / (cfg.concentration_hours * 3600.0)
    if peak > 0:
        headroom = tps_capacity / peak
    else:  # a load whose peak underflowed to 0 has no finite ratio
        headroom = None if report.onchain_tx_total == 0 else math.inf
    verdict = RequirementsVerdict(
        capacity_tps=tps_capacity,
        projected_peak_tps=peak,
        headroom_ratio=headroom,
        daily_onchain_projected=daily_onchain,
        daily_offchain_projected=daily_offchain,
        daily_offchain_consortium=daily_offchain_consortium,
        passed=peak < tps_capacity,
    )
    for name, value in asdict(verdict).items():
        if value is not None and not math.isfinite(value):
            raise InvalidConfig(f"{name} is {value} under these assumptions; every figure must be finite")
    return verdict


# --- persisted-ledger verification --------------------------------------------------


def verify_ledger(path) -> ValidityReport:
    """Full integrity pass over a persisted chain: every block replayed
    through a fresh ledger with a token bank attached (``verify_blocks``), so
    each chain rule and token rule the live engine enforces is checked, then
    a supply-closure cross-check.  Only the verdict is kept."""
    return replay_ledger(path)[0]


@_collector_paused
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
