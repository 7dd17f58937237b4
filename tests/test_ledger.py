"""Ledger: submission, sealing, verification, visibility, persistence."""

import dataclasses
import json
import math
import tracemalloc

import pytest

from dice import codec
from dice.errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    PayloadRejected,
    ReplayRejected,
    UnknownReader,
    UnknownSigner,
)
from dice.ledger import (
    SAVE_CHUNK_TXS,
    AttachCheck,
    Block,
    ChannelClose,
    ChannelOpen,
    Issue,
    Ledger,
    QueryFilter,
    Transaction,
    block_digest,
    load_blocks_jsonl,
    make_transaction,
    tx_digest,
)
from dice.harness import verify_ledger
from dice.tokenbank import TokenBank, verify_blocks

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
    forged = dataclasses.replace(tx, tx_id=codec.sha256(b"other"))
    with pytest.raises(BadSignature):
        ledger.submit(forged)


def test_append_submits_the_tx_make_transaction_builds(ledger):
    tx = issue_tx(ledger, 1)
    assert ledger.append(tx.timestamp, tx.signer, tx.payload) == tx.tx_id
    assert ledger.pending == [tx] and ledger.tx_index == {tx.tx_id: tx}


def test_submit_re_digests_every_tx_append_did_not_build(ledger):
    """A tx id signed but not the tx's digest is caught right after an
    append, and right after an append that was rejected."""
    wrong_id = codec.sha256(b"other")
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


def test_genesis_convention(ledger):
    genesis = ledger.chain[0]
    assert genesis.height == 0
    assert genesis.prev_hash == b"\x00" * 32
    assert genesis.validator == "A"
    assert genesis.roster == tuple(ROSTER)


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
    path.write_text("".join(json.dumps(b.to_record(), separators=(",", ":")) + "\n" for b in chain))
    return path


def test_empty_block_is_rejected_at_its_height(ledger, tmp_path):
    _build_chain(ledger, blocks=3)
    height, prev = len(ledger.chain), ledger.chain[-1].block_hash
    validator, root = ROSTER[height % len(ROSTER)], codec.merkle_root([])
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
    "prev_hash": (codec.sha256(b"other"), "prev_hash"),
    "validator": ("A", "validator"),
    "tx_root": (codec.sha256(b"other"), "tx_root"),
    "sealed_at": (999, "block_hash"),  # the stored hash commits to the old time
    "block_hash": (codec.sha256(b"other"), "block_hash"),
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


# Genesis field -> (tampered value, reason the replay reports at height 0).
TAMPERED_GENESIS = {
    "roster": ((), "block rejected: ValueError: roster must not be empty"),
    "keys": ({**KEYS, "A": codec.derive_key(1, "A")}, "tx_root mismatch"),
    "txs": ((make_transaction(0, "A", Issue("A", "w", 5), codec.KeyedMacSigner(KEYS)),), "txs mismatch"),
}


@pytest.mark.parametrize("name", TAMPERED_GENESIS)
def test_tampered_genesis_is_reported_at_height_zero(ledger, tmp_path, name):
    value, reason = TAMPERED_GENESIS[name]
    _build_chain(ledger, blocks=2)
    chain = list(ledger.chain)
    chain[0] = dataclasses.replace(chain[0], **{name: value})
    path = _save_blocks(chain, tmp_path / "chain.jsonl")
    for report in (verify_blocks(chain)[0], verify_ledger(path)):
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


# --- visibility ----------------------------------------------------------------


@pytest.fixture
def scoped_ledger():
    ledger = Ledger(ROSTER, KEYS)
    ledger.submit(make_transaction(1, "A", Issue("A", "wA", 10), ledger.signer_backend))
    ledger.submit(make_transaction(
        2, "A", ChannelOpen("ch1", "wA", "B", 10, codec.sha256(b"p"), 999), ledger.signer_backend
    ))
    ledger.submit(make_transaction(3, "B", AttachCheck("wA", "B", "A", True), ledger.signer_backend))
    ledger.seal_block(5)
    return ledger


def test_issuer_sees_own_issue_txs(scoped_ledger):
    txs = scoped_ledger.query("A", QueryFilter(kind="issue"))
    assert len(txs) == 1


def test_third_party_cannot_see_channel_or_issue(scoped_ledger):
    assert scoped_ledger.query("C", QueryFilter(kind="channel_open")) == []
    assert scoped_ledger.query("C", QueryFilter(kind="issue")) == []
    # but public payloads remain visible
    assert len(scoped_ledger.query("C", QueryFilter(kind="attach"))) == 1


def test_channel_party_sees_channel(scoped_ledger):
    assert len(scoped_ledger.query("B", QueryFilter(channel="ch1"))) == 1


def test_unknown_reader(scoped_ledger):
    with pytest.raises(UnknownReader):
        scoped_ledger.query("Z", QueryFilter())


def test_visibility_is_monotone_in_scope(scoped_ledger):
    # Any reader's view is a subset of the all-scopes view (every sealed tx).
    full = {tx.tx_id for tx in scoped_ledger.all_txs()}
    for reader in ROSTER:
        view = {tx.tx_id for tx in scoped_ledger.query(reader, QueryFilter())}
        assert view <= full


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


def test_crlf_lines_load(tmp_path, ledger):
    # The \r left on each line is JSON whitespace.
    path = tmp_path / "chain.jsonl"
    lines = _saved_lines(ledger, path)
    path.write_bytes(b"".join(line + b"\r\n" for line in lines))
    assert [b.block_hash for b in load_blocks_jsonl(path)] == [b.block_hash for b in ledger.chain]
    assert verify_ledger(path).valid


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
    assert lines == [json.dumps(b.to_record(), separators=(",", ":")) + "\n" for b in ledger.chain]


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
    """Save a 4-block chain with ``edit`` applied to the record of one line."""
    _build_chain(ledger, blocks=4)
    ledger.save_jsonl(path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line])
    edit(rec)
    lines[line] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edit", BAD_TX_RECORDS.values(), ids=BAD_TX_RECORDS)
def test_bad_tx_record_is_a_parse_error_at_its_line(tmp_path, ledger, edit):
    path = _save_edited(ledger, tmp_path / "chain.jsonl", 2, lambda rec: edit(rec["txs"][0]))
    with pytest.raises(LedgerParseError) as err:
        load_blocks_jsonl(path)
    assert err.value.line == 2


# (line, edit) of a stored block record the live ledger could not have
# written: a key no hash covers (the empty roster and keys equal a later
# block's own, so unchecked they verified), or upper-case hex.
BAD_BLOCK_RECORDS = {
    "extra block key": (2, lambda rec: rec.update(bonus=1)),
    "roster on a later block": (2, lambda rec: rec.update(roster=[])),
    "keys on a later block": (2, lambda rec: rec.update(keys={})),
    "extra genesis key": (0, lambda rec: rec.update(bonus=1)),
    "upper-case block_hash": (2, lambda rec: rec.update(block_hash=rec["block_hash"].upper())),
    # tuple("ABC") == ("A", "B", "C"): read as a tuple, the str verified.
    "string roster": (0, lambda rec: rec.update(roster="".join(rec["roster"]))),
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


def test_str_and_int_payloads_never_reach_the_general_encoder(monkeypatch):
    """Once its payload class's layout is built, a tx whose fields are all str
    and int is hashed by ``RecordLayout.digest`` alone, never through
    ``codec._enc``."""
    payloads = [Issue("A", "w1", 5), ChannelClose("ch-1", 3, 2, 3)]
    for p in payloads:
        tx_digest(0, "A", p)
    calls, enc = [], codec._enc
    monkeypatch.setattr(codec, "_enc", lambda value, out: (calls.append(value), enc(value, out)))
    for n in range(1, 30):
        for p in payloads:
            tx_digest(n, "B", p)
    assert calls == []


def test_records_are_immutable(ledger):
    _build_chain(ledger, blocks=1)
    block = ledger.chain[1]
    tx = block.txs[0]
    for record, name in [(block, "height"), (tx, "signer"), (tx.payload, "amount")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
