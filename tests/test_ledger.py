"""Ledger: submission, sealing, verification, visibility, persistence."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import pytest

from dice import codec
from dice import ledger as ledger_module
from dice.errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    PayloadRejected,
    ReplayRejected,
    UnknownSigner,
)
from dice.ledger import (
    SAVE_CHUNK_TXS,
    AgreementRegistration,
    Block,
    ChannelOpen,
    Issue,
    Ledger,
    Transaction,
    block_digest,
    load_blocks_jsonl,
    make_transaction,
    tx_digest,
)
from dice.harness import ScenarioConfig, run_scenario, verify_ledger
from dice.tokenbank import TokenBank, verify_blocks

from helpers import record_of

ROSTER = ["A", "B", "C"]
KEYS = {m: codec.derive_key(0, m) for m in ROSTER}


@pytest.fixture
def ledger():
    return Ledger(ROSTER, KEYS)


def issue_tx(ledger, n, signer="A", amount=5):
    return make_transaction(n, signer, Issue(signer, f"w{n}", amount), ledger.signer_backend)


def test_submit_appends_to_pending(ledger):
    tx = issue_tx(ledger, 1)
    tx_id = ledger.submit(tx)
    assert tx_id == tx.tx_id
    assert len(ledger.pending) == 1
    assert len(ledger.chain) == 1  # genesis only, sealing not triggered


def test_resubmission_is_rejected(ledger):
    tx = issue_tx(ledger, 1)
    ledger.submit(tx)
    with pytest.raises(DuplicateTx):
        ledger.submit(tx)


def test_unknown_signer_rejected(ledger):
    backend = codec.KeyedMacSigner({"mallory": b"k"})
    tx = make_transaction(1, "mallory", Issue("A", "w1", 5), backend)
    with pytest.raises(UnknownSigner):
        ledger.submit(tx)


def test_bad_signature_rejected(ledger):
    tx = issue_tx(ledger, 1)
    forged = dataclasses.replace(tx, signature=bytes(32))
    with pytest.raises(BadSignature):
        ledger.submit(forged)


def test_tampered_tx_id_rejected(ledger):
    tx = issue_tx(ledger, 1)
    forged = dataclasses.replace(tx, tx_id=codec.digest(b"other"))
    with pytest.raises(BadSignature):
        ledger.submit(forged)


def test_append_submits_the_tx_make_transaction_builds(ledger):
    tx = issue_tx(ledger, 1)
    assert ledger.append(tx.timestamp, tx.signer, tx.payload) == tx.tx_id
    assert ledger.pending == [tx] and ledger.tx_index == {tx.tx_id: tx}


def test_submit_re_digests_every_tx_append_did_not_build(ledger):
    """A tx id signed but not the tx's digest is caught right after an
    append, and right after an append that was rejected."""
    wrong_id = codec.digest(b"other")
    forged = dataclasses.replace(issue_tx(ledger, 2), tx_id=wrong_id,
                                 signature=ledger.signer_backend.sign("A", wrong_id))
    ledger.append(1, "A", Issue("A", "w1", 5))
    with pytest.raises(BadSignature):
        ledger.submit(forged)
    with pytest.raises(PayloadRejected):
        ledger.append(3, "A", Issue("A", 7, 5))
    with pytest.raises(BadSignature):
        ledger.submit(forged)
    assert len(ledger.pending) == 1


def test_submit_verifies_the_mac_of_every_tx_append_did_not_build(ledger):
    """``submit`` skips the MAC check only for the tx object ``append`` has
    just built and signed: a tx from ``make_transaction`` with one signature
    byte flipped is rejected, also right after an append."""
    tx = issue_tx(ledger, 2)
    flipped = dataclasses.replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
    with pytest.raises(BadSignature):
        ledger.submit(flipped)
    ledger.append(1, "A", Issue("A", "w1", 5))
    with pytest.raises(BadSignature):
        ledger.submit(flipped)
    assert len(ledger.pending) == 1
    assert ledger.submit(tx) == tx.tx_id


def test_genesis_convention(ledger):
    genesis = ledger.chain[0]
    assert genesis.height == 0
    assert genesis.prev_hash == b"\x00" * 32
    assert genesis.validator == "A"
    assert genesis.roster == tuple(ROSTER)


@pytest.mark.parametrize("roster, keys, name", [
    ([7], {7: b"k"}, "roster"),
    (["A", None], KEYS, "roster"),
    (ROSTER, {**KEYS, 7: b"k"}, "keys"),
    (ROSTER, {**KEYS, "A": KEYS["A"].hex()}, "keys"),
], ids=["int actor", "None actor", "int registry actor", "hex key"])
def test_genesis_door_rejects_what_genesis_could_not_write(roster, keys, name):
    """Genesis's door: a roster actor that is not a str, or a registry
    entry that is not a str actor with a bytes key, would write a genesis
    line the loader rejects."""
    with pytest.raises(PayloadRejected, match=f"^{name} must be of type"):
        Ledger(roster, keys)


def test_an_empty_roster_is_a_value_error():
    with pytest.raises(ValueError, match="^roster must not be empty$") as err:
        Ledger([], KEYS)
    assert type(err.value) is ValueError


def genesis_line(path, validator, roster="[7]"):
    """Write a genesis line holding ``roster`` and ``validator``, its tx root
    and block hash taken over its text."""
    registry = f'"roster":{roster},"keys":{{"A":"6b"}}'
    tx_root = codec.digest(f"{{{registry}}}".encode())
    header = json.dumps({"height": 0, "prev_hash": "00" * 32, "tx_root": tx_root.hex(), "validator": validator,
                         "sealed_at": 0}, separators=(",", ":"))
    block_hash = codec.digest(header.encode())
    path.write_text(f'{header[:-1]},"block_hash":"{block_hash.hex()}","txs":[],{registry}}}\n')


def test_a_genesis_line_of_an_int_actor_is_invalid_at_height_zero(tmp_path):
    """Genesis's door, which the loader runs too, rejects it at line 0."""
    path = tmp_path / "chain.jsonl"
    genesis_line(path, "A")
    with pytest.raises(LedgerParseError, match="roster must be of type list of str, not \\[7\\]$") as err:
        load_blocks_jsonl(path)
    assert err.value.line == 0
    report = verify_ledger(path)
    assert (report.valid, report.first_invalid_height) == (False, 0)
    assert report.reason == "parse error: line 0: roster must be of type list of str, not [7]"


def test_a_genesis_line_of_an_empty_roster_is_a_parse_error_at_line_zero(tmp_path):
    path = tmp_path / "chain.jsonl"
    genesis_line(path, "A", roster="[]")
    with pytest.raises(LedgerParseError, match="roster must not be empty$") as err:
        load_blocks_jsonl(path)
    assert err.value.line == 0
    report = verify_ledger(path)
    assert (report.valid, report.first_invalid_height) == (False, 0)
    assert report.reason == "parse error: line 0: roster must not be empty"


def test_a_genesis_line_of_an_int_validator_is_a_parse_error_at_line_zero(tmp_path):
    """The header door, which genesis's writer runs, rejects it on load."""
    path = tmp_path / "chain.jsonl"
    genesis_line(path, 7)
    with pytest.raises(LedgerParseError, match="validator must be of type str, not 7") as err:
        load_blocks_jsonl(path)
    assert err.value.line == 0
    report = verify_ledger(path)
    assert (report.valid, report.first_invalid_height) == (False, 0)
    assert report.reason.startswith("parse error")


def test_genesis_takes_no_time():
    with pytest.raises(TypeError, match="genesis_time"):
        Ledger(ROSTER, KEYS, genesis_time=5)
    assert Ledger(ROSTER, KEYS).chain[0].sealed_at == 0


def test_a_genesis_sealed_at_another_time_is_invalid_at_height_zero(ledger, tmp_path):
    """Every ledger seals genesis at 0, and so does the replay: a stored
    genesis at time 5, with its block hash and the next block's link and
    hash remade, is a chain no live engine wrote."""
    _build_chain(ledger, blocks=2)
    chain = list(ledger.chain)
    for height, block in enumerate(chain):
        sealed_at = 5 if height == 0 else block.sealed_at
        prev_hash = chain[height - 1].block_hash if height else block.prev_hash
        chain[height] = dataclasses.replace(block, sealed_at=sealed_at, prev_hash=prev_hash, block_hash=block_digest(
            height, prev_hash, block.tx_root, block.validator, sealed_at))
    assert chain[0].block_hash != ledger.chain[0].block_hash
    assert _first_bad_height_oracle(chain) is None   # every hash and link checks out
    path = _save_blocks(chain, tmp_path / "chain.jsonl")
    for report in (verify_blocks(chain)[0], verify_ledger(path)):
        assert (report.valid, report.first_invalid_height, report.reason) == (False, 0, "sealed_at mismatch")


@pytest.mark.parametrize("now", [2.5, True, "5", 10 ** 5000], ids=["2.5", "True", "'5'", "10**5000"])
def test_seal_block_rejects_a_time_no_header_holds(ledger, monkeypatch, now):
    """Before any header text is written or hashed, naming ``sealed_at``,
    and leaving ``pending`` and ``chain`` as they were."""
    ledger.submit(issue_tx(ledger, 1))
    pending, chain = list(ledger.pending), list(ledger.chain)
    calls = []
    for owner, name in ((codec, "digest"), (ledger_module, "_block_header")):
        monkeypatch.setattr(owner, name, lambda *args, _name=name: calls.append(_name))
    with pytest.raises(PayloadRejected, match="^sealed_at must be of type int, not "):
        ledger.seal_block(now)
    assert calls == []
    assert (ledger.pending, ledger.chain) == (pending, chain)


def test_round_robin_validator_and_submission_order(ledger):
    for n in range(3):
        ledger.submit(issue_tx(ledger, n))
    block = ledger.seal_block(10)
    # Height 1 with roster [A, B, C] -> validator B; txs keep submission order.
    assert block.height == 1
    assert block.validator == "B"
    assert [tx.timestamp for tx in block.txs] == [0, 1, 2]
    assert ledger.pending == []
    ledger.submit(issue_tx(ledger, 9))
    assert ledger.seal_block(11).validator == "C"


def test_seal_with_nothing_pending(ledger):
    ledger.submit(issue_tx(ledger, 1))
    ledger.seal_block(5)
    with pytest.raises(EmptyPending):
        ledger.seal_block(6)


def _build_chain(ledger, blocks=10, txs_per_block=2):
    n = 0
    for b in range(blocks):
        for _ in range(txs_per_block):
            ledger.submit(issue_tx(ledger, n))
            n += 1
        ledger.seal_block(100 + b)


def test_fresh_chain_verifies(ledger):
    _build_chain(ledger)
    report = verify_blocks(ledger.chain)[0]
    assert report.valid and report.first_invalid_height is None


def test_empty_chain_is_invalid(tmp_path):
    # The live ledger always seals a genesis block.
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(b"")
    for result in (verify_blocks([])[0], verify_ledger(path)):
        assert not result.valid
        assert (result.first_invalid_height, result.reason) == (0, "no genesis block")
    with pytest.raises(ReplayRejected, match="no genesis block"):
        TokenBank.rebuild_from_ledger([])


def _first_bad_height_oracle(chain):
    """Brute force: independently recompute digests block by block."""
    prev = b"\x00" * 32
    for i, block in enumerate(chain):
        if i > 0:
            for tx in block.txs:
                if tx_digest(tx.timestamp, tx.signer, tx.payload) != tx.tx_id:
                    return i
            root = codec.merkle_root([t.tx_id for t in block.txs])
            if root != block.tx_root:
                return i
        if block.prev_hash != prev:
            return i
        if block_digest(block.height, block.prev_hash, block.tx_root,
                        block.validator, block.sealed_at) != block.block_hash:
            return i
        prev = block.block_hash
    return None


def test_payload_mutation_detected_at_its_height(ledger):
    _build_chain(ledger)
    target = ledger.chain[4]
    victim = target.txs[1]
    tampered_tx = dataclasses.replace(
        victim, payload=Issue(victim.payload.issuer, victim.payload.wallet, victim.payload.amount + 1)
    )
    tampered_block = dataclasses.replace(
        target, txs=target.txs[:1] + (tampered_tx,) + target.txs[2:]
    )
    chain = list(ledger.chain)
    chain[4] = tampered_block
    assert _first_bad_height_oracle(chain) == 4
    report = verify_blocks(chain)[0]
    assert not report.valid
    assert report.first_invalid_height == 4


def test_height_resequencing_detected(ledger):
    _build_chain(ledger, blocks=4)
    chain = list(ledger.chain)
    chain[2], chain[3] = chain[3], chain[2]
    report = verify_blocks(chain)[0]
    assert not report.valid
    assert report.first_invalid_height == 2


def _save_blocks(chain, path):
    path.write_text("".join(json.dumps(record_of(b), separators=(",", ":")) + "\n" for b in chain))
    return path


def test_empty_block_is_rejected_at_its_height(ledger, tmp_path):
    _build_chain(ledger, blocks=3)
    height, prev = len(ledger.chain), ledger.chain[-1].block_hash
    validator, root = ROSTER[height % len(ROSTER)], codec.ZERO_DIGEST
    ledger.chain.append(Block(height, prev, root, validator, 200,
                              block_digest(height, prev, root, validator, 200)))
    ledger.submit(issue_tx(ledger, 99))
    ledger.seal_block(201)
    path = _save_blocks(ledger.chain, tmp_path / "chain.jsonl")
    for report in (verify_blocks(ledger.chain)[0], verify_ledger(path)):
        assert not report.valid
        assert report.first_invalid_height == height
        assert report.reason.startswith("block rejected: EmptyPending: ")


# Header field -> (tampered value, field the replay reports as differing).
TAMPERED_HEADER = {
    "prev_hash": (codec.digest(b"other"), "prev_hash"),
    "validator": ("A", "validator"),
    "tx_root": (codec.digest(b"other"), "tx_root"),
    "sealed_at": (999, "block_hash"),  # the stored hash commits to the old time
    "block_hash": (codec.digest(b"other"), "block_hash"),
}


@pytest.mark.parametrize("name", TAMPERED_HEADER)
def test_tampered_header_field_is_reported_at_its_height(ledger, tmp_path, name):
    value, reported = TAMPERED_HEADER[name]
    _build_chain(ledger, blocks=6)
    chain = list(ledger.chain)
    assert getattr(chain[4], name) != value
    chain[4] = dataclasses.replace(chain[4], **{name: value})
    path = _save_blocks(chain, tmp_path / "chain.jsonl")
    for report in (verify_blocks(chain)[0], verify_ledger(path)):
        assert not report.valid
        assert report.first_invalid_height == 4
        assert report.reason == f"{reported} mismatch"


# Genesis field -> (tampered value, reason the replay of the blocks reports
# at height 0, and reason for their saved lines, whose loader runs genesis's door).
TAMPERED_GENESIS = {
    "roster": ((), "block rejected: ValueError: roster must not be empty",
               "parse error: line 0: roster must not be empty"),
    "keys": ({**KEYS, "A": codec.derive_key(1, "A")}, "tx_root mismatch", "tx_root mismatch"),
    "txs": ((make_transaction(0, "A", Issue("A", "w", 5), codec.KeyedMacSigner(KEYS)),), "txs mismatch",
            "txs mismatch"),
}


@pytest.mark.parametrize("name", TAMPERED_GENESIS)
def test_tampered_genesis_is_reported_at_height_zero(ledger, tmp_path, name):
    value, *reasons = TAMPERED_GENESIS[name]
    _build_chain(ledger, blocks=2)
    chain = list(ledger.chain)
    chain[0] = dataclasses.replace(chain[0], **{name: value})
    path = _save_blocks(chain, tmp_path / "chain.jsonl")
    for report, reason in zip((verify_blocks(chain)[0], verify_ledger(path)), reasons, strict=True):
        assert not report.valid
        assert report.first_invalid_height == 0
        assert report.reason == reason


def test_append_only_index(ledger):
    _build_chain(ledger, blocks=3)
    before = dict(ledger.tx_index)
    for n in range(100, 106):
        ledger.submit(issue_tx(ledger, n))
        ledger.seal_block(200 + n)
    for tx_id, loc in before.items():
        assert ledger.tx_index[tx_id] == loc


def test_identical_submissions_give_identical_chains(tmp_path):
    paths = []
    for run in range(2):
        ledger = Ledger(ROSTER, KEYS)
        _build_chain(ledger, blocks=5)
        p = tmp_path / f"run{run}.jsonl"
        ledger.save_jsonl(p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


# --- persistence -----------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path, ledger):
    _build_chain(ledger, blocks=5)
    path = tmp_path / "chain.jsonl"
    ledger.save_jsonl(path)
    blocks = load_blocks_jsonl(path)
    assert len(blocks) == len(ledger.chain)
    assert verify_blocks(blocks)[0].valid
    assert [b.block_hash for b in blocks] == [b.block_hash for b in ledger.chain]


def test_truncated_line_is_a_parse_error(tmp_path, ledger):
    _build_chain(ledger, blocks=3)
    path = tmp_path / "chain.jsonl"
    ledger.save_jsonl(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])  # cut into the final line
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == len(ledger.chain) - 1


# How the loader splits a file into lines: at b"\n" only, a final b"\n"
# ending the last line.


def _saved_lines(ledger, path) -> list[bytes]:
    _build_chain(ledger, blocks=4)
    ledger.save_jsonl(path)
    return path.read_bytes().split(b"\n")[:-1]


def test_file_without_final_newline_loads(tmp_path, ledger):
    path = tmp_path / "chain.jsonl"
    lines = _saved_lines(ledger, path)
    path.write_bytes(b"\n".join(lines))
    assert [b.block_hash for b in load_blocks_jsonl(path)] == [b.block_hash for b in ledger.chain]


@pytest.mark.parametrize("at", [None, 2], ids=["trailing", "middle"])
def test_empty_line_is_a_parse_error_at_its_index(tmp_path, ledger, at):
    path = tmp_path / "chain.jsonl"
    lines = _saved_lines(ledger, path)
    at = len(lines) if at is None else at
    lines.insert(at, b"")
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == at
    report = verify_ledger(path)
    assert (report.valid, report.first_invalid_height) == (False, at)


def test_crlf_lines_are_a_parse_error_at_the_first_line(tmp_path, ledger):
    # The \r left on each line is JSON whitespace, but save_jsonl writes none.
    path = tmp_path / "chain.jsonl"
    lines = _saved_lines(ledger, path)
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == 0
    report = verify_ledger(path)
    assert (report.valid, report.first_invalid_height) == (False, 0)


def test_empty_file_has_no_blocks(tmp_path):
    # test_empty_chain_is_invalid: so verify_ledger finds no genesis block.
    path = tmp_path / "chain.jsonl"
    path.write_bytes(b"")
    assert load_blocks_jsonl(path) == []


def test_directory_is_not_loaded(tmp_path):
    # verify_ledger turns this into IoFailure, and the CLI into exit 1
    # (test_harness.py, test_cli_verify_on_a_directory_exits_one).
    with pytest.raises(IsADirectoryError):
        load_blocks_jsonl(tmp_path)


def test_each_saved_line_is_its_blocks_record(tmp_path, ledger):
    # Block sizes at the edges of the chunks save_jsonl encodes txs in.
    sizes = [1, SAVE_CHUNK_TXS, SAVE_CHUNK_TXS + 1, 2 * SAVE_CHUNK_TXS]
    n = 0
    for height, size in enumerate(sizes, start=1):
        for _ in range(size):
            ledger.submit(issue_tx(ledger, n))
            n += 1
        ledger.seal_block(100 + height)
    path = tmp_path / "chain.jsonl"
    ledger.save_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    assert [len(b.txs) for b in ledger.chain] == [0, *sizes]
    assert ledger.chain[0].roster and ledger.chain[0].keys
    assert lines == [json.dumps(record_of(b), separators=(",", ":")) + "\n" for b in ledger.chain]


def _traced(fn):
    """``fn()``, and the traced memory above that before the call: at its
    end, and at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
        return result, now - before, peak - before
    finally:
        tracemalloc.stop()


def test_save_holds_less_than_its_longest_line(tmp_path, ledger):
    _build_chain(ledger, blocks=1, txs_per_block=2000)
    path = tmp_path / "chain.jsonl"
    _, _, peak = _traced(lambda: ledger.save_jsonl(path))
    assert peak < max(len(line) for line in path.read_bytes().split(b"\n"))


def test_save_holds_less_than_its_genesis_line(tmp_path):
    """Genesis's key registry is written in chunks, as txs are."""
    actors = [*ROSTER, *(f"roamer-{i:06d}" for i in range(20_000))]
    ledger = Ledger(ROSTER, {a: codec.derive_key(0, a) for a in actors})
    path = tmp_path / "chain.jsonl"
    _, _, peak = _traced(lambda: ledger.save_jsonl(path))
    line = path.read_text().split("\n")[0]
    assert line == json.dumps(record_of(ledger.chain[0]), separators=(",", ":"))
    assert peak < len(line)


def test_load_holds_less_than_the_file_besides_its_blocks(tmp_path, ledger):
    _build_chain(ledger, blocks=20, txs_per_block=100)
    path = tmp_path / "chain.jsonl"
    ledger.save_jsonl(path)
    blocks, kept, peak = _traced(lambda: load_blocks_jsonl(path))
    assert len(blocks) == 21
    assert peak - kept < path.stat().st_size


# Edits to the first tx record of a stored line that leave it valid JSON.
BAD_TX_RECORDS = {
    "unknown kind": lambda tx: tx["payload"].update(kind="mint"),
    "no kind": lambda tx: tx["payload"].pop("kind"),
    "extra payload key": lambda tx: tx["payload"].update(bonus=1),
    "missing payload key": lambda tx: tx["payload"].pop("amount"),
    "renamed payload key": lambda tx: tx["payload"].update(amt=tx["payload"].pop("amount")),
    "no signature": lambda tx: tx.pop("signature"),
    # A timestamp is stored as an int, not as an equal string or float.
    "string timestamp": lambda tx: tx.update(timestamp=str(tx["timestamp"])),
    "float timestamp": lambda tx: tx.update(timestamp=float(tx["timestamp"])),
    # A signer is a str; a list or dict reached the key registry unhashable.
    "list signer": lambda tx: tx.update(signer=[tx["signer"]]),
    "dict signer": lambda tx: tx.update(signer={"a": 1}),
    "int signer": lambda tx: tx.update(signer=1),
    # No hash covers a key the live ledger does not write.
    "extra tx key": lambda tx: tx.update(memo="x"),
    # The live ledger writes lower-case hex; upper case decodes to the same bytes.
    "upper-case tx_id": lambda tx: tx.update(tx_id=tx["tx_id"].upper()),
    "upper-case signature": lambda tx: tx.update(signature=tx["signature"].upper()),
    # json.dumps writes these literals, which are not JSON and no live record holds.
    "NaN amount": lambda tx: tx["payload"].update(amount=math.nan),
    "Infinity amount": lambda tx: tx["payload"].update(amount=math.inf),
    "-Infinity amount": lambda tx: tx["payload"].update(amount=-math.inf),
}


def _save_edited(ledger, path, line, edit):
    """Save a 5-block chain, its last block one ChannelOpen, with ``edit``
    applied to the text of one line."""
    _build_chain(ledger, blocks=4)
    ledger.append(50, "A", ChannelOpen("ch-1", "w0", "B", 5, codec.digest(b"p"), 999))
    ledger.seal_block(200)
    ledger.save_jsonl(path)
    lines = path.read_text().split("\n")
    lines[line] = edit(lines[line])
    path.write_text("\n".join(lines))
    return path


def on_record(edit):
    """A line edit: ``edit`` applied to the line's record, written back as
    ``save_jsonl`` writes a record, so only ``edit`` can make it differ."""
    def edit_line(text):
        rec = json.loads(text)
        edit(rec)
        return json.dumps(rec, separators=(",", ":"))
    return edit_line


@pytest.mark.parametrize("line", range(6))
def test_a_line_rewritten_as_save_writes_it_loads(tmp_path, ledger, line):
    """The control of the edits below: rewriting a line's record unedited
    changes no byte, so the chain loads to the saved blocks and verifies."""
    path = _save_edited(ledger, tmp_path / "chain.jsonl", line, on_record(lambda rec: None))
    assert load_blocks_jsonl(path) == ledger.chain
    assert verify_ledger(path).valid


@pytest.mark.parametrize("edit", BAD_TX_RECORDS.values(), ids=BAD_TX_RECORDS)
def test_bad_tx_record_is_a_parse_error_at_its_line(tmp_path, ledger, edit):
    path = _save_edited(ledger, tmp_path / "chain.jsonl", 2, on_record(lambda rec: edit(rec["txs"][0])))
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == 2


def _upper_hashlock(rec):
    payload = rec["txs"][0]["payload"]
    payload["hashlock"] = payload["hashlock"].upper()


# (line, edit) of a stored line the live ledger could not have written: a key
# no hash covers (the empty roster and keys equal a later block's own), or
# upper-case hex, which ``bytes.fromhex`` reads; a str roster, which ``tuple``
# reads as the tuple of its characters; or text that parses to the same
# record but is not the line save_jsonl writes for it.
BAD_BLOCK_RECORDS = {
    "extra block key": (2, on_record(lambda rec: rec.update(bonus=1))),
    "roster on a later block": (2, on_record(lambda rec: rec.update(roster=[]))),
    "keys on a later block": (2, on_record(lambda rec: rec.update(keys={}))),
    "extra genesis key": (0, on_record(lambda rec: rec.update(bonus=1))),
    "upper-case block_hash": (2, on_record(lambda rec: rec.update(block_hash=rec["block_hash"].upper()))),
    "upper-case hashlock": (5, on_record(_upper_hashlock)),
    "string roster": (0, on_record(lambda rec: rec.update(roster="".join(rec["roster"])))),
    "space after a comma": (1, lambda text: text.replace(",", ", ", 1)),
    "escaped validator": (1, lambda text: text.replace('"validator":"B"', '"validator":"\\u0042"')),
    # json.loads keeps the last of two equal keys.
    "duplicate height key first": (1, lambda text: '{"height":999,' + text[1:]),
    "trailing CR": (1, lambda text: text + "\r"),
}


@pytest.mark.parametrize("line, edit", BAD_BLOCK_RECORDS.values(), ids=BAD_BLOCK_RECORDS)
def test_bad_block_record_is_a_parse_error_at_its_line(tmp_path, ledger, line, edit):
    path = _save_edited(ledger, tmp_path / "chain.jsonl", line, edit)
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == line
    report = verify_ledger(path)
    assert not report.valid and report.first_invalid_height == line
    assert report.reason.startswith("parse error")


@pytest.mark.parametrize("payload", [None, {"kind": "issue"}], ids=["None", "dict"])
def test_a_payload_of_no_payload_class_is_rejected(ledger, payload):
    """``submit`` and ``append`` reject it naming the payload, before any
    digest, and leave the ledger as it was."""
    forged = dataclasses.replace(issue_tx(ledger, 1), payload=payload)
    with pytest.raises(PayloadRejected, match="^payload must be of type"):
        ledger.submit(forged)
    with pytest.raises(PayloadRejected, match="^payload must be of type"):
        ledger.append(1, "A", payload)
    assert ledger.pending == [] and ledger.tx_index == {}


def test_agreements_equal_but_for_charging_order_get_one_tx_id():
    ids = [Ledger(ROSTER, KEYS).append(5, "A", AgreementRegistration("A", "B", ("A",), charging))
           for charging in ({"model": "per_unit", "rate": 0.04}, {"rate": 0.04, "model": "per_unit"})]
    assert ids[0] == ids[1]


def _sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def test_each_hash_covers_the_text_its_line_holds(tmp_path):
    """On a saved chain: each tx id is the SHA-256 of its timestamp, signer
    and the payload text cut from its line; each block hash of the header its
    line starts with; genesis's tx root of the roster and keys its line ends
    with.  The charging spec is written with its keys sorted."""
    run_scenario(ScenarioConfig(seed=42, days=2, charging={"rate": 0.04, "model": "per_unit"}), tmp_path)
    lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert '"charging":{"model":"per_unit","rate":0.04}' in lines[1]
    kinds = set()
    for line in lines:
        rec = json.loads(line)
        assert _sha256(line[:line.index(',"block_hash":')] + "}").hex() == rec["block_hash"]
        for tx in rec["txs"]:
            start = line.index(f'{{"tx_id":"{tx["tx_id"]}",')
            end = line.index(f',"signature":"{tx["signature"]}"}}', start)
            payload = line[line.index(',"payload":', start) + len(',"payload":'):end]
            assert json.loads(payload) == tx["payload"]
            body = f'{{"timestamp":{tx["timestamp"]},"signer":{json.dumps(tx["signer"])},"payload":{payload}}}'
            assert _sha256(body).hex() == tx["tx_id"]
            kinds.add(tx["payload"]["kind"])
    assert _sha256("{" + lines[0][lines[0].index('"roster":'):]).hex() == json.loads(lines[0])["tx_root"]
    assert kinds == {"issue", "agreement", "attach", "channel_open", "channel_close", "redeem"}


def test_records_are_immutable(ledger):
    _build_chain(ledger, blocks=1)
    block = ledger.chain[1]
    tx = block.txs[0]
    for record, name in [(block, "height"), (tx, "signer"), (tx.payload, "amount")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
