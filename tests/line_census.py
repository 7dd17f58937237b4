"""The line census: every executable line of ``src/dice`` is run by an honest
pass of the CLI or by a rejection table, or is listed in ``UNREACHED`` with
the input or caller that reaches it, or the reason it stays.

A line is executable if an instruction of some code object of its module
maps to it (``co_lines``).  A fresh interpreter installs a ``sys.settrace``
line tracer before ``import dice``, so what runs at import counts too, and
traces only frames of ``src/dice``.  It runs:

- the honest CLI pass, ``HONEST_CLI``: a default run of the 1-day config
  file ``CONFIG`` with proofs and events dumped, a 1-day home-routing run
  twice into one out dir (a rerun replaces the outputs), a 10-day default
  run (past the 7-day timelock window), ``ledger verify``, ``requirements``
  with ``--traffic-tb-per-day`` and ``calibrate``;
- the tests of the rejection tables, ``TABLE_TESTS``, under pytest.

A line is keyed by (module, function qualname, stripped source text), so
that edits elsewhere do not churn ``UNREACHED``; the n-th repeat of a text
in one function ends in `` #n``.  The census fails on an unreached line that
is not listed, and on a listed line that is now reached or gone, so the
list only shrinks.

It takes longer than a tier-1 test should (about 5 s, most of it pytest
running the tables under the tracer), so it is a script.  From the
repository root::

    python tests/line_census.py

It prints each line that differs from ``UNREACHED`` and exits 1, or prints
its counts and exits 0.  ``tests/test_src_census.py`` checks, without
tracing, that each listed line is still an executable src line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "dice"

HONEST_CLI = [
    ["simulate", "--config", "{out}/config.json", "--out-dir", "{out}/default", "--dump-proofs", "--dump-events"],
    ["simulate", "--days", "1", "--mode", "hr", "--out-dir", "{out}/hr"],
    ["simulate", "--days", "1", "--mode", "hr", "--out-dir", "{out}/hr"],
    ["simulate", "--days", "10", "--out-dir", "{out}/ten"],
    ["ledger", "verify", "--path", "{out}/default/ledger.jsonl"],
    ["requirements", "--report", "{out}/default/report.json", "--traffic-tb-per-day", "10"],
    ["calibrate"],
]
# The config file the honest pass reads, written into its out dir.
CONFIG = {"days": 1}

# The tests that run each row of a rejection table, as pytest node ids
# under ``tests``, each with its table.
TABLE_TESTS = [
    "test_forgery.py::test_signed_forgery_is_rejected_live_and_on_replay",       # FORGERIES
    "test_forgery.py::test_mistyped_payload_is_a_parse_error_at_its_line",       # MISTYPED
    "test_forgery.py::test_mistyped_tx_field_is_rejected_live_and_at_its_line",  # MISTYPED_TX
    "test_channel.py::test_every_off_chain_rule_rejects_some_proof_case",        # PROOF_CASES
    "test_ledger.py::test_bad_tx_record_is_a_parse_error_at_its_line",           # BAD_TX_RECORDS
    "test_ledger.py::test_bad_block_record_is_a_parse_error_at_its_line",        # BAD_BLOCK_RECORDS
    "test_ledger.py::test_tampered_header_field_is_reported_at_its_height",      # TAMPERED_HEADER
    "test_ledger.py::test_tampered_genesis_is_reported_at_height_zero",          # TAMPERED_GENESIS
    "test_harness.py::test_verify_ledger_rejects_non_int_numbers",               # NON_INT_PROBES
    "test_harness.py::test_out_of_range_field_is_rejected",                      # OUT_OF_RANGE
    "test_harness.py::test_bad_charging_spec_is_rejected_on_load",               # STRICT_CHARGING
]

# Run in a fresh interpreter.  argv: the src directory, the output
# directory, the file the reached (file, line) pairs are written to, then
# the CLI pass and the table tests as JSON.
PROBE = """
import json
import sys
src, out, reached_path, cli, tests = sys.argv[1:]
reached = set()

def line(frame, event, arg):
    reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    if frame.f_code.co_filename.startswith(src):
        return line(frame, event, arg)
    return None

sys.settrace(call)
from dice.cli import main
for args in json.loads(cli):
    try:
        main([arg.format(out=out) for arg in args])
    except SystemExit as exit:
        assert exit.code == 0, (args, exit.code)
import pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", *json.loads(tests)])
sys.settrace(None)
assert code == 0, code
with open(reached_path, "w") as fh:
    json.dump(sorted(reached), fh)
"""


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of ``path`` that an instruction maps to, with the qualname
    of the innermost code object that runs it."""
    owners: dict[int, str] = {}   # a module's code maps its first instruction to line 0
    queue = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while queue:   # outer code objects first, so an inner one owns the lines it shares
        code = queue.pop(0)
        owners.update((line, code.co_qualname.replace(".<locals>", ""))
                      for _start, _end, line in code.co_lines() if line)
        queue.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return owners


def src_lines(src: Path = SRC) -> dict[tuple[str, int], tuple[str, str, str]]:
    """The key of each executable line of the modules in ``src``, by (file, line)."""
    keys = {}
    for path in sorted(src.resolve().glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        repeats: Counter = Counter()
        for line, owner in sorted(executable_lines(path).items()):
            stripped = text[line - 1].strip()
            repeats[owner, stripped] += 1
            n = repeats[owner, stripped]
            keys[str(path), line] = (path.stem, owner, stripped if n == 1 else f"{stripped} #{n}")
    return keys


def reached_lines(tmp: Path) -> set[tuple[str, int]]:
    """(file, line) of each src line the probe runs."""
    src = SRC.resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src.parent), os.environ.get("PYTHONPATH", "")])}
    reached = tmp / "reached.json"
    (tmp / "out").mkdir()
    (tmp / "out" / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", PROBE, str(src), str(tmp / "out"), str(reached),
                           json.dumps(HONEST_CLI), json.dumps([str(TESTS / test) for test in TABLE_TESTS])],
                          env=env, cwd=tmp, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"the census run failed:\n{done.stdout}{done.stderr}")
    return {(file, line) for file, line in json.loads(reached.read_text())}


def _lines(module: str, qualname: str, reason: str, *texts: str) -> dict:
    return {(module, qualname, text): reason for text in texts}


# The executable src lines the census does not reach, each with the input
# or caller that reaches it, or why it stays.
UNREACHED: dict[tuple[str, str, str], str] = {
    # -- CLI error paths
    **_lines("cli", "<module>", "`python -m dice.cli` (tests/test_harness.py)", "main()"),
    **_lines("cli", "_exit_codes.run", "a config that fails its schema or cannot be read, a path that "
             "cannot be read or written, a knob the projection cannot hold, or a run that breaks a protocol "
             "rule, such as a price beyond float range (tests/test_harness.py)",
             "raise click.UsageError(str(exc))", 'click.echo(f"i/o failure: {exc}", err=True)', "sys.exit(1)",
             'click.echo(f"error: {type(exc).__name__}: {exc}", err=True)', "sys.exit(1) #2"),
    **_lines("cli", "ledger_verify", "a chain that does not verify (tests/test_harness.py)",
             'where = "?" if result.first_invalid_height is None else result.first_invalid_height',
             'click.echo(f"INVALID at height {where}: {result.reason}")'),
    **_lines("cli", "requirements", "a --traffic-tb-per-day beyond float range, or a report that cannot "
             "be read (tests/test_harness.py)",
             'raise click.BadParameter("must be >= 0, with a byte count within float range",',
             "param_hint=\"'--traffic-tb-per-day'\")",
             "except (OSError, ValueError, InvalidConfig) as exc:",
             'click.echo(f"cannot read report: {exc}", err=True)', "sys.exit(1)"),
    # -- config, report and scenario errors
    **_lines("harness", "ScenarioConfig.from_json_file", "a --config file: missing, or not JSON "
             "(tests/test_harness.py)", "except OSError as exc:",
             "raise IoFailure(str(exc)) from None", "except json.JSONDecodeError as exc:",
             'raise InvalidConfig(f"not valid JSON: {exc}") from None'),
    **_lines("harness", "_build_report", "a config whose extrapolation leaves float range, such as "
             "num_mnos 1e306 (tests/test_harness.py)",
             "except OverflowError:  # num_mnos / scale took it beyond float range",
             'raise InvalidConfig(f"extrapolated {name} is beyond float range; every figure must be finite") '
             "from None"),
    **_lines("harness", "check_requirements", "a report with no on-chain load, and a peak that underflows "
             "to 0 (tests/test_harness.py)", "headroom = None if report.onchain_tx_total == 0 else math.inf"),
    **_lines("harness", "check_requirements", "a projection beyond float range (tests/test_harness.py)",
             'raise InvalidConfig(f"{name} is {value} under these assumptions; every figure must be finite")'),
    **_lines("harness", "run_scenario", "an --out-dir under a file, and a handcrafted trace that lists "
             "events of no arrival (tests/test_harness.py)",
             "except OSError as exc:", "raise IoFailure(str(exc)) from None",
             'raise InvalidConfig(f"trace lists traffic of roamer {roamer}, who has no arrival")',
             'what = "departure" if action == _DEPART else "traffic"',
             'raise InvalidConfig(f"trace lists {what} of roamer {subject} on day {now // DAY}, "'),
    **_lines("harness", "run_scenario", "a dump path or output file that cannot be written "
             "(tests/test_harness.py)", "except OSError as exc: #2", "raise IoFailure(str(exc)) from None #2"),
    **_lines("harness", "run_scenario.seal", "run_scenario's on_seal audit hook (tests/test_protocol.py)",
             "on_seal(engine)"),
    **_lines("harness", "replay_ledger", "a --path that cannot be read (tests/test_harness.py)",
             "raise IoFailure(str(exc)) from None"),
    **_lines("harness", "replay_ledger", "detects a bank fault that breaks supply closure, such as a burn "
             "left uncounted (tests/test_harness.py)",
             'verdict = ValidityReport(False, None, "supply closure violated")'),
    **_lines("workload", "WorkloadConfig.validate", "a config with an unordered churn band, or a stay "
             "median too long to end (tests/test_harness.py)",
             'raise InvalidConfig(f"$.churn_fraction_range: {lo} > {hi}")',
             'raise InvalidConfig(f"$.stay_days_median: {self.stay_days_median!r} is too long to end a stay")'),
    **_lines("workload", "_require_float_range", "a config int beyond float range (tests/test_harness.py)",
             'raise InvalidConfig(f"{name} is beyond float range; every figure must be finite")'),
    **_lines("workload", "generate", "a config whose traffic draw overflows, such as traffic_dispersion "
             "1e300 (tests/test_harness.py)",
             "except OverflowError:  # depends on the draw, so validate cannot catch it",
             'raise InvalidConfig("a daily traffic draw is beyond float range; lower "',
             '"traffic_dispersion or daily_traffic_median_bytes") from None'),
    **_lines("workload", "_geometric", "a stay median so short that every roamer leaves after a day "
             "(tests/test_workload.py)", "return 1"),
    **_lines("workload", "solve_powerlaw_exponent", "a config with 10 or fewer home MNOs or countries "
             "(tests/test_workload.py)", "return 1.0"),
    **_lines("workload", "calibration_report", "a library call on an empty trace, which the CLI never "
             "builds (tests/test_workload.py)", 'raise EmptyTrace("no arrivals in trace")'),
    # -- the library's rejections of a caller's input
    **_lines("codec", "KeyedMacSigner._keyed", "a key over 32 bytes (tests/test_codec.py)",
             "key = hashlib.blake2s(key).digest()"),
    **_lines("codec", "KeyedMacSigner.sign", "signing as an actor with no key (tests/test_codec.py)",
             'raise KeyError(f"no key registered for actor {actor!r}")'),
    **_lines("ledger", "record", "guards the generated __init__ against a field it does not generate "
             "(tests/test_records.py)",
             'raise TypeError(f"{cls.__name__}: a record has positional fields, no default_factory and no '
             '__post_init__")'),
    **_lines("ledger", "_is_json", "a charging spec holding a list (tests/test_codec.py)",
             "return all(map(_is_json, value))"),
    **_lines("ledger", "_rejected", "a mistyped field holding an int longer than repr writes "
             "(tests/test_codec.py)",
             "except ValueError:   # it holds an int of more digits than ``repr`` writes",
             'shown = f"a {type(value).__name__} JSON cannot state"'),
    **_lines("ledger", "make_transaction", "an issue signed by an actor with no key (tests/test_tokenbank.py)",
             "raise UnknownSigner(signer)"),
    **_lines("ledger", "_check_genesis", "a Ledger or genesis line whose roster or keys are mistyped "
             "(tests/test_ledger.py)",
             'raise _rejected("roster", "list of str", roster)',
             'raise _rejected("keys", "dict of str to bytes", bad)'),
    **_lines("ledger", "Ledger.seal_block", "sealing with nothing pending, and a replayed empty block "
             "(tests/test_ledger.py)", 'raise EmptyPending("no pending transactions")'),
    **_lines("channel", "ChannelManager.channel", "paying on a channel id never opened (tests/test_channel.py)",
             "raise UnknownChannel(channel_id)"),
    **_lines("protocol", "DiceEngine.attach_check", "an attach of a session in the wrong state, with no "
             "agreement or no tokens (tests/test_protocol.py)", "raise WrongState(session.state)", "raise failure"),
    **_lines("protocol", "DiceEngine.provision_profile", "provisioning an HR session, or one not attached "
             "(tests/test_protocol.py)", "raise WrongMode(session.mode)", "raise WrongState(session.state)"),
    **_lines("protocol", "DiceEngine.open_session_channel", "opening a channel twice (tests/test_protocol.py)",
             'raise WrongState(f"{session.state}, expected {expected}")'),
    **_lines("protocol", "DiceEngine.session_traffic", "traffic on a session not active (tests/test_protocol.py)",
             "raise WrongState(session.state)"),
    **_lines("protocol", "DiceEngine.detach", "detaching a session not active (tests/test_protocol.py)",
             "raise WrongState(session.state)"),
    **_lines("settlement", "make_claim", "a claim for a VMNO that holds no treasury yet (tests/test_harness.py)",
             "return None"),
    **_lines("tokenbank", "price", "the fixed and parity charging models, and a negative token count "
             "(tests/test_settlement.py)",
             'raise ValueError("tokens must be non-negative")', "if isinstance(model, Fixed):",
             "return model.flat * (1.0 - model.discount)",
             "return tokens / model.tokens_per_mb * model.euro_per_mb"),
    **_lines("tokenbank", "TokenBank.create_identities", "a mismatched amount list, and an identity a rule "
             "rejects (tests/test_tokenbank.py)",
             'raise NonPositiveAmount(f"need n>=1 wallets and {n} amounts")',
             "except DiceError:   # a rule rejected it, before the ledger took it",
             "del self.wallets[wallet_ids.pop()]", "raise"),
    **_lines("tokenbank", "TokenBank.transfer", "a transfer of no tokens or fewer, or of more than the "
             "spendable balance; a transfer that leaves lots behind (tests/test_tokenbank.py)",
             "raise NonPositiveAmount(str(amount))",
             'raise InsufficientBalance(f"{frm} has {spendable} spendable < {amount} of {issuer}")', "break"),
    **_lines("tokenbank", "TokenBank.lock", "locking more than the spendable balance (tests/test_tokenbank.py)",
             'raise InsufficientBalance(f"{wallet_id} has {spendable} spendable < {amount}")'),
    **_lines("tokenbank", "TokenBank.lot", "an unknown lot id (tests/test_tokenbank.py)",
             "raise UnknownLot(lot_id)"),
    **_lines("tokenbank", "TokenBank.provenance_fault", "a redeem of a lot of another issuer, one no issue "
             "made, or one no channel close paid (tests/test_settlement.py)",
             'return "wrong-issuer"', 'return "missing-issuance"', 'return "not-service-payment"'),
    **_lines("tokenbank", "verify_blocks", "an empty ledger file (tests/test_ledger.py)",
             'return ValidityReport(False, 0, "no genesis block"), None'),
    # -- kept for callers outside src
    **_lines("tokenbank", "TokenBank.rebuild_from_ledger", "wrapped by the benchmark's tracer",
             "verdict, bank = verify_blocks(chain.chain if isinstance(chain, Ledger) else chain)",
             "if not verdict.valid:", "raise ReplayRejected(verdict.first_invalid_height, verdict.reason)",
             "return bank"),
    **_lines("errors", "ReplayRejected.__init__", "raised only by rebuild_from_ledger, for a chain that does "
             "not verify", 'super().__init__(f"height {height}: {reason}")', "self.height = height"),
    **_lines("settlement", "validate_provenance", "wrapped by the benchmark's tracer",
             "for lot_id in claim.lot_ids:", "reason = bank.provenance_fault(lot_id, claim.hmno, claim.vmno)",
             "if reason is not None:", "return ProvenanceVerdict(False, lot_id, reason)",
             "return ProvenanceVerdict(True)"),
    **_lines("channel", "PaymentChannel.status", "read by the benchmark's tracer to count open channels",
             "return OPEN if self.closed is None else CLOSED"),
}


def census(tmp: Path) -> set[tuple[str, str, str]]:
    """The key of each executable src line the probe does not run."""
    reached = reached_lines(tmp)
    return {key for where, key in src_lines().items() if where not in reached}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        unreached = census(Path(tmp))
    listed = set(UNREACHED)
    for key in sorted(unreached - listed):
        print("unreached, not listed:", key)
    for key in sorted(listed - unreached):
        print("listed, but reached or gone:", key)
    print(f"{len(src_lines())} executable src lines, {len(unreached)} unreached, {len(listed)} listed")
    return 0 if unreached == listed else 1


if __name__ == "__main__":
    sys.exit(main())
