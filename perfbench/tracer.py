"""Layer tracer for the dice-sim benchmark.

The simulator carries no instrumentation of its own, so the tracer wraps
public functions at the attribute their callers resolve (class methods,
module functions called through their module, and the names ``harness``
imported directly) and restores the original objects afterwards.

A stack of open calls gives every call its self time: its duration minus
the time of the wrapped calls it made.  Fine-grained calls (digests, proofs,
token-bank lookups, ...) are aggregated in place, so memory stays bounded
at a million calls; coarse calls (seal, claim, sweep, save, load, replay)
also keep one span each.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

# Coarse calls keep a span each; everything else is only aggregated.
COARSE = frozenset({
    "ledger.seal_block", "ledger.save_jsonl", "ledger.load_blocks_jsonl",
    "ledger.verify_blocks", "channel.timeout_sweep", "protocol.timeout_sweep",
    "settlement.make_claim", "settlement.validate_provenance", "settlement.redeem",
    "tokenbank.rebuild_from_ledger", "tokenbank.supply_closure_ok",
    "harness.run_scenario", "harness.verify_ledger",
})

# Token-bank calls whose self time is summed into ``tokenbank.ops.self_s``.
TOKENBANK_OPS = (
    "issue", "create_identities", "create_wallet", "treasury", "transfer",
    "lock", "release_lock", "burn", "balance", "spendable", "locked_amount",
    "wallet", "lot", "lots_of",
)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str
    self_time: float


class Tracer:
    """Wraps layer boundaries while installed; use as a context manager."""

    def __init__(self, dice):
        self.dice = dice
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[Span] = []
        self.engine = None          # last DiceEngine seen, read after the run
        self._stack: list[list] = [["root", 0.0]]   # [name, child time]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation

    def __enter__(self) -> "Tracer":
        d = self.dice
        m = d.ledger.Ledger
        self._method(m, "submit", "ledger.submit")
        self._method(m, "seal_block", "ledger.seal_block", before=self._count_pending)
        self._method(m, "get_tx", "ledger.get_tx", before=self._count_get_tx)
        self._method(m, "save_jsonl", "ledger.save_jsonl", after=self._count_saved)
        self._generator(m, "all_txs", "ledger.all_txs.txs_yielded")
        self._function(d.harness, "load_blocks_jsonl", "ledger.load_blocks_jsonl",
                       before=self._count_loaded)
        self._function(d.harness, "verify_blocks", "ledger.verify_blocks",
                       before=self._count_verified)

        m = d.channel.ChannelManager
        self._method(m, "open_channel", "channel.open_channel")
        self._method(m, "pay_for_traffic", "channel.pay_for_traffic", after=self._count_proofs)
        self._method(m, "receive_proof", "channel.receive_proof")
        self._method(m, "close_channel", "channel.close_channel")
        self._method(m, "timeout_sweep", "channel.timeout_sweep", before=self._count_walked)

        m = d.tokenbank.TokenBank
        for name in TOKENBANK_OPS:
            self._method(m, name, f"tokenbank.{name}")
        self._method(m, "supply_closure_ok", "tokenbank.supply_closure_ok")
        self._method(m, "rebuild_from_ledger", "tokenbank.rebuild_from_ledger")

        m = d.protocol.DiceEngine
        self._method(m, "attach_check", "protocol.attach_check", before=self._remember_engine)
        self._method(m, "open_session_channel", "protocol.open_session_channel")
        self._method(m, "session_traffic", "protocol.session_traffic")
        self._method(m, "detach", "protocol.detach")
        self._method(m, "timeout_sweep", "protocol.timeout_sweep")

        m = d.codec.KeyedMacSigner
        self._method(m, "sign", "codec.sign")
        self._method(m, "verify", "codec.verify")
        self._function(d.codec, "digest", "codec.digest")
        self._function(d.codec, "merkle_root", "codec.merkle_root")

        self._function(d.settlement, "validate_provenance", "settlement.validate_provenance",
                       before=self._count_lots, after=self._count_verdict)
        self._function(d.settlement, "redeem", "settlement.redeem")
        self._function(d.harness, "make_claim", "settlement.make_claim")
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original object, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as a span of its own, for entry points the caller owns."""
        return self._wrap(fn, name, None, None)(*args, **kwargs)

    # -- wrapping

    def _save(self, owner, attr):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        return original

    def _function(self, module, attr, name, before=None, after=None) -> None:
        original = self._save(module, attr)
        setattr(module, attr, self._wrap(original, name, before, after))

    def _method(self, cls, attr, name, before=None, after=None) -> None:
        original = self._save(cls, attr)
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(self._wrap(original.__func__, name, before, after)))
        else:
            setattr(cls, attr, self._wrap(original, name, before, after))

    def _generator(self, cls, attr, counter) -> None:
        original = self._save(cls, attr)
        counts = self.counts

        def counting(*args, **kwargs):
            n = 0
            try:
                for item in original(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counts[counter] = counts.get(counter, 0) + n

        setattr(cls, attr, counting)

    def _wrap(self, fn, name, before, after):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans if name in COARSE else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                parent[1] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += own
                if spans is not None:
                    spans.append(Span(name, start, end, parent[0], own))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken at the boundaries

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _count_pending(self, args) -> None:
        self._add("ledger.seal_block.txs", len(args[0].pending))

    def _count_get_tx(self, args) -> None:
        if args[1] not in args[0].tx_index:
            self._add("ledger.get_tx.pending", 1)

    def _count_saved(self, args, _result) -> None:
        self._add("ledger.save_jsonl.bytes", os.path.getsize(args[1]))

    def _count_loaded(self, args) -> None:
        self._add("ledger.load_blocks_jsonl.bytes", os.path.getsize(args[0]))

    def _count_verified(self, args) -> None:
        self._add("ledger.verify_blocks.txs", sum(len(b.txs) for b in args[0]))

    def _count_proofs(self, _args, result) -> None:
        self._add("channel.pay_for_traffic.proofs", len(result))

    def _count_walked(self, args) -> None:
        channels = args[0].channels
        self._add("channel.timeout_sweep.channels_walked", len(channels))
        self._add("channel.timeout_sweep.open",
                  sum(1 for ch in channels.values() if ch.status == self.dice.channel.OPEN))

    def _count_lots(self, args) -> None:
        self._add("settlement.validate_provenance.lots", len(args[2].lot_ids))

    def _count_verdict(self, _args, verdict) -> None:
        if not verdict.accepted:
            self._add("settlement.claims_rejected", 1)

    def _remember_engine(self, args) -> None:
        self.engine = args[0]

    # -- reading back

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)


# name, unit, better, and the end-to-end metric (and workload) it should move.
PER_LAYER = (
    ("codec.digest.calls", "count", "lower", "proofs_per_s on payments; sessions_per_s on chain"),
    ("codec.digest.self_s", "s", "lower", "proofs_per_s on payments; sessions_per_s on chain"),
    ("codec.sign.calls", "count", "lower", "proofs_per_s on payments"),
    ("codec.sign.us_per_call", "us", "lower", "proofs_per_s on payments"),
    ("codec.verify.calls", "count", "lower", "proofs_per_s on payments"),
    ("codec.verify.us_per_call", "us", "lower", "proofs_per_s on payments"),
    ("codec.merkle_root.self_s", "s", "lower", "sessions_per_s and verify_txs_per_s on chain"),
    ("ledger.submit.calls", "count", "lower", "sessions_per_s on chain"),
    ("ledger.submit.us_per_call", "us", "lower", "sessions_per_s on chain"),
    ("ledger.seal_block.calls", "count", "lower", "sessions_per_s on chain"),
    ("ledger.seal_block.txs_per_block", "tx/block", "higher", "sessions_per_s on chain"),
    ("ledger.get_tx.calls", "count", "lower", "sessions_per_s on chain"),
    ("ledger.get_tx.self_s", "s", "lower", "sessions_per_s on chain"),
    ("ledger.get_tx.pending_share", "ratio", "lower", "sessions_per_s on chain"),
    ("ledger.all_txs.txs_yielded", "count", "lower", "sessions_per_s on chain"),
    ("ledger.save_jsonl.mb_per_s", "MB/s", "higher", "sessions_per_s on both"),
    ("ledger.load_blocks_jsonl.mb_per_s", "MB/s", "higher", "verify_txs_per_s on chain"),
    ("ledger.verify_blocks.txs_per_s", "1/s", "higher", "verify_txs_per_s on chain"),
    ("tokenbank.ops.self_s", "s", "lower", "sessions_per_s on chain"),
    ("tokenbank.transfer.calls", "count", "lower", "sessions_per_s on chain"),
    ("tokenbank.rebuild_from_ledger.s", "s", "lower", "verify_txs_per_s on chain"),
    ("tokenbank.supply_closure_ok.s", "s", "lower", "verify_txs_per_s on chain"),
    ("channel.pay_for_traffic.us_per_proof", "us", "lower", "proofs_per_s on payments"),
    ("channel.pay_for_traffic.errors", "count", "lower", "failure count; Expired is swallowed by the run"),
    ("channel.receive_proof.calls", "count", "lower", "proofs_per_s on payments"),
    ("channel.receive_proof.us_per_call", "us", "lower", "proofs_per_s on payments"),
    ("channel.receive_proof.errors", "count", "lower", "failure count"),
    ("channel.open_channel.us_per_call", "us", "lower", "sessions_per_s on chain"),
    ("channel.close_channel.us_per_call", "us", "lower", "sessions_per_s on chain"),
    ("channel.timeout_sweep.self_s", "s", "lower", "sessions_per_s on chain"),
    ("channel.timeout_sweep.channels_walked", "count", "lower", "sessions_per_s on chain"),
    ("channel.timeout_sweep.open_share", "ratio", "higher", "sessions_per_s on chain"),
    ("channel.accepted_proofs_held", "count", "lower", "peak_rss_mb on payments"),
    ("protocol.attach_check.us_per_call", "us", "lower", "sessions_per_s on both"),
    ("protocol.session_traffic.self_s", "s", "lower", "sessions_per_s and proofs_per_s on both"),
    ("protocol.detach.us_per_call", "us", "lower", "sessions_per_s on both"),
    ("protocol.events_held", "count", "lower", "peak_rss_mb on both"),
    ("settlement.validate_provenance.calls", "count", "lower", "sessions_per_s on chain, not payments"),
    ("settlement.validate_provenance.ms_per_claim", "ms", "lower", "sessions_per_s on chain, not payments"),
    ("settlement.validate_provenance.us_per_lot", "us", "lower", "sessions_per_s on chain, not payments"),
    ("settlement.validate_provenance.self_s", "s", "lower", "sessions_per_s on chain, not payments"),
    ("settlement.make_claim.self_s", "s", "lower", "sessions_per_s on chain"),
    ("settlement.redeem.self_s", "s", "lower", "sessions_per_s on chain"),
    ("settlement.claims_rejected", "count", "lower", "failure count"),
    ("workload.generate.s", "s", "lower", "setup_s on both"),
    ("harness.run_scenario.self_s", "s", "lower", "sessions_per_s and proofs_per_s on both"),
    ("harness.verify_ledger.self_s", "s", "lower", "verify_txs_per_s on both"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced run_scenario time"),
)


def _per(total: float, n: int, scale: float = 1.0) -> float:
    return total * scale / n if n else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(run: Tracer, verify: Tracer, untraced_run_s: float,
                  generate_s: float) -> dict[str, float]:
    """Every PER_LAYER value from a traced run and a traced verify pass."""
    s = run.stat
    v = verify.stat
    mb = 1e-6
    provenance = s("settlement.validate_provenance")
    sweep = run.count("channel.timeout_sweep.channels_walked")
    engine = run.engine
    return {
        "codec.digest.calls": s("codec.digest").calls,
        "codec.digest.self_s": s("codec.digest").self_time,
        "codec.sign.calls": s("codec.sign").calls,
        "codec.sign.us_per_call": _per(s("codec.sign").total, s("codec.sign").calls, 1e6),
        "codec.verify.calls": s("codec.verify").calls,
        "codec.verify.us_per_call": _per(s("codec.verify").total, s("codec.verify").calls, 1e6),
        "codec.merkle_root.self_s": s("codec.merkle_root").self_time + v("codec.merkle_root").self_time,
        "ledger.submit.calls": s("ledger.submit").calls,
        "ledger.submit.us_per_call": _per(s("ledger.submit").total, s("ledger.submit").calls, 1e6),
        "ledger.seal_block.calls": s("ledger.seal_block").calls,
        "ledger.seal_block.txs_per_block": _per(run.count("ledger.seal_block.txs"),
                                                s("ledger.seal_block").calls),
        "ledger.get_tx.calls": s("ledger.get_tx").calls,
        "ledger.get_tx.self_s": s("ledger.get_tx").self_time,
        "ledger.get_tx.pending_share": _per(run.count("ledger.get_tx.pending"),
                                            s("ledger.get_tx").calls),
        "ledger.all_txs.txs_yielded": run.count("ledger.all_txs.txs_yielded"),
        "ledger.save_jsonl.mb_per_s": _rate(run.count("ledger.save_jsonl.bytes") * mb,
                                            s("ledger.save_jsonl").total),
        "ledger.load_blocks_jsonl.mb_per_s": _rate(verify.count("ledger.load_blocks_jsonl.bytes") * mb,
                                                   v("ledger.load_blocks_jsonl").total),
        "ledger.verify_blocks.txs_per_s": _rate(verify.count("ledger.verify_blocks.txs"),
                                                v("ledger.verify_blocks").total),
        "tokenbank.ops.self_s": sum(s(f"tokenbank.{op}").self_time for op in TOKENBANK_OPS),
        "tokenbank.transfer.calls": s("tokenbank.transfer").calls,
        "tokenbank.rebuild_from_ledger.s": v("tokenbank.rebuild_from_ledger").total,
        "tokenbank.supply_closure_ok.s": v("tokenbank.supply_closure_ok").total,
        "channel.pay_for_traffic.us_per_proof": _per(s("channel.pay_for_traffic").total,
                                                     run.count("channel.pay_for_traffic.proofs"), 1e6),
        "channel.pay_for_traffic.errors": s("channel.pay_for_traffic").errors,
        "channel.receive_proof.calls": s("channel.receive_proof").calls,
        "channel.receive_proof.us_per_call": _per(s("channel.receive_proof").total,
                                                  s("channel.receive_proof").calls, 1e6),
        "channel.receive_proof.errors": s("channel.receive_proof").errors,
        "channel.open_channel.us_per_call": _per(s("channel.open_channel").total,
                                                 s("channel.open_channel").calls, 1e6),
        "channel.close_channel.us_per_call": _per(s("channel.close_channel").total,
                                                  s("channel.close_channel").calls, 1e6),
        "channel.timeout_sweep.self_s": s("channel.timeout_sweep").self_time,
        "channel.timeout_sweep.channels_walked": sweep,
        "channel.timeout_sweep.open_share": _per(run.count("channel.timeout_sweep.open"), sweep),
        "channel.accepted_proofs_held": len(engine.channels.accepted_proofs) if engine else 0,
        "protocol.attach_check.us_per_call": _per(s("protocol.attach_check").total,
                                                  s("protocol.attach_check").calls, 1e6),
        "protocol.session_traffic.self_s": s("protocol.session_traffic").self_time,
        "protocol.detach.us_per_call": _per(s("protocol.detach").total, s("protocol.detach").calls, 1e6),
        "protocol.events_held": sum(len(x.events) for x in engine.sessions.values()) if engine else 0,
        "settlement.validate_provenance.calls": provenance.calls,
        "settlement.validate_provenance.ms_per_claim": _per(provenance.total, provenance.calls, 1e3),
        "settlement.validate_provenance.us_per_lot": _per(
            provenance.total, run.count("settlement.validate_provenance.lots"), 1e6),
        "settlement.validate_provenance.self_s": provenance.self_time,
        "settlement.make_claim.self_s": s("settlement.make_claim").self_time,
        "settlement.redeem.self_s": s("settlement.redeem").self_time,
        "settlement.claims_rejected": run.count("settlement.claims_rejected"),
        "workload.generate.s": generate_s,
        "harness.run_scenario.self_s": s("harness.run_scenario").self_time,
        "harness.verify_ledger.self_s": v("harness.verify_ledger").self_time,
        "trace.overhead_s": s("harness.run_scenario").total - untraced_run_s,
    }
