"""Append-only consortium ledger with deterministic round-robin sealing.

Consensus is intentionally trivial: a fixed roster seals blocks in turn and
every hash is recomputable, so two identical submission sequences produce
byte-identical chains.  The chain is public, as its file is: every reader
walks the sealed txs through ``all_txs`` and filters them itself.

A tx, a block header and genesis's roster and keys each have one door for
their types, which raises PayloadRejected naming the field before any of
their text is written, and which the loader runs too, so a mistyped line is
a parse error at its line.  ``tx_digest`` runs ``_check_tx``, which the
payload's generated ``check`` (its fields and declared kind) ends;
``block_digest`` runs ``_check_header`` for genesis (sealed at 0 by every
ledger) and each block ``seal_block`` seals; ``Ledger`` runs
``_check_genesis``.  The live ``append`` digests and signs a tx once in
``make_transaction``; ``submit`` runs every chain rule and the token rules
of the bank attached with ``attach_bank``.  On every tx ``append`` did not
just build, ``submit`` also checks the id and signature are bytes and
verifies the MAC, and re-digests the tx unless ``load_blocks_jsonl`` proved
its id: the loader type-checks each tx once, builds its ``_tx_text`` once,
matches the line against that text, and marks the tx proved if its id is the
digest of that text and its payload holds no list or dict (see ``_Proof``).

Each hash covers the JSON text of its record that ``save_jsonl`` writes in
the record's line, never through a record dict: a tx id its ``_tx_text``, a
block hash its ``_block_header``, genesis's tx_root its ``_genesis_registry``.
Each of these texts starts with its own key, so no two kinds hash the same
text; JSON tells ``1``, ``1.0``, ``"1"`` and ``true`` apart, and a dict field
is written with the keys of each of its dicts sorted, so equal payloads get
equal ids.  ``_block_line`` states a block's whole line once: ``save_jsonl``
writes it, and ``load_blocks_jsonl`` accepts a line only if it is the
``_block_line`` of the block it parsed to.  ``tokenbank.verify_blocks`` replays a persisted
chain through a fresh ledger and bank, so a chain verifies only if the live
engine could have written it.
"""

from __future__ import annotations

import json
import os
import sys
import weakref
from dataclasses import MISSING, dataclass, fields
from itertools import islice
from typing import Iterable, Iterator, Optional, get_args, get_origin, get_type_hints

from . import codec
from .codec import ZERO_DIGEST
from .errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    PayloadRejected,
    UnknownSigner,
)

# --- immutable records ------------------------------------------------------


def record(cls):
    """``dataclass(frozen=True, slots=True)``, with an ``__init__`` that stores
    each argument through its slot's member descriptor.

    The frozen dataclass ``__init__`` stores each field through
    ``object.__setattr__``, which looks the slot up by name on every call.
    This one, generated once per class as ``dataclasses`` generates its own,
    has the same signature and defaults.  Fields are positional-or-keyword,
    with no ``default_factory``, and a record has no ``__post_init__``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    flds = fields(cls)
    if hasattr(cls, "__post_init__") or any(not f.init or f.kw_only or f.default_factory is not MISSING
                                            for f in flds):
        raise TypeError(f"{cls.__name__}: a record has positional fields, no default_factory and no __post_init__")
    env = {"__name__": cls.__module__}
    params, body = [], []
    for f in flds:
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        else:
            params.append(f.name)
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    # Compiled under a file name per class: profiles key their stats by (file,
    # line, name), and so tell apart the methods generated for each class.
    source = f"def __init__(self, {', '.join(params)}):\n{''.join(body)}"
    exec(compile(source, f"<generated {cls.__module__}.{cls.__qualname__}>", "exec"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


# --- transaction payloads ---------------------------------------------------


# ``json.dumps(..., separators=(",", ":"))``'s encoder, built once; and the
# one a dict field is written by, which writes each dict in it, at any depth,
# in sorted key order, so that equal dicts write equal text.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_SORTED_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_esc = json.encoder.encode_basestring_ascii   # what _ENCODER writes for a str

# Ints of more digits than ``str`` writes (CPython's int-to-text limit, or
# its default where the limit is off) raise ValueError, so no line holds one.
_INT_BOUND = 10 ** (sys.get_int_max_str_digits() or 4300)


def _is_json(value) -> bool:
    """Whether ``value`` is what ``json.loads`` reads from some JSON text, a
    tuple standing for a list: at any depth, a dict with str keys, a list, a
    str, an int below ``_INT_BOUND`` in size, a finite float, a bool or None,
    each exactly of that type."""
    kind = type(value)
    if kind is dict:
        return all(type(key) is str and _is_json(item) for key, item in value.items())
    if kind is list or kind is tuple:
        return all(map(_is_json, value))
    if kind is int or kind is float:   # no float past the bound is finite
        return -_INT_BOUND < value < _INT_BOUND
    return kind is str or kind is bool or value is None


def _rejected(name: str, want: str, value) -> PayloadRejected:
    """The error of a field ``name`` whose ``value`` is not of type ``want``."""
    try:
        shown = repr(value)
    except ValueError:   # it holds an int of more digits than ``repr`` writes
        shown = f"a {type(value).__name__} JSON cannot state"
    return PayloadRejected(f"{name} must be of type {want}, not {shown}")


def payload(kind: str):
    """``record``, plus the payload's wire form and field types stated by its
    fields alone: ``to_json``, ``from_fields`` and ``check``, generated once
    per class like the ``__init__`` of ``record``.  ``to_json``, one f-string
    that a tx line holds and a tx id hashes, writes the kind, then the fields
    in declared order: a ``bytes`` field as lower-case hex read back by
    ``bytes.fromhex``, a ``tuple`` field as a list read back by ``tuple``, a
    ``dict`` field by ``_SORTED_ENCODER``, any other as is.  Upper-case hex, or
    a str for a list, reads back too, but is not the line ``save_jsonl``
    writes, so ``load_blocks_jsonl`` rejects it.  ``check``, which the door
    ``_check_tx`` runs, raises PayloadRejected, naming the field, unless the
    payload's kind is the declared ``kind`` (the loader reads a class by its
    kind) and each field holds exactly its declared type and a value JSON
    states: a tuple field a tuple of str, and the float field, ``Redeem.fiat``,
    any float or JSON value, which the bank checks is a price.
    ``holds_mutable`` tells whether the payload holds a list or dict, which
    a caller can edit in place after the loader proved its tx's id: a dict
    field always does, the float field when it holds one."""
    def declare(cls):
        cls.kind = kind
        cls = record(cls)
        hints = get_type_hints(cls)
        read, text, mutable = [], [f'{{{{"kind":{_esc(kind)}'], []
        checks = [f"    if self.kind != {kind!r}:\n        raise rejected('kind', {kind!r}, self.kind)\n"]
        for name in (f.name for f in fields(cls)):
            hint = get_origin(hints[name]) or hints[name]
            # Per declared type: the field's written value, ``from_fields`` read,
            # ``check`` test and the type its error names, and ``to_json`` text,
            # inline where it needs no ``_ENCODER``.
            v = f"self.{name}"
            value, arg, want, inline = v, f"f[{name!r}]", hint.__name__, None
            test = f"type({v}) is {want}"
            if hint is str:
                inline = f"{{esc({v})}}"
            elif hint is int:
                test, inline = f"{test} and -_INT_BOUND < {v} < _INT_BOUND", f"{{{v}}}"
            elif hint is bool:
                inline = f"{{'true' if {v} else 'false'}}"
            elif hint is bytes:
                value, arg, inline = f"{v}.hex()", f"bytes.fromhex({arg})", f'"{{{v}.hex()}}"'
            elif hint is tuple:
                want, test = "tuple of str", f"{test} and all(type(s) is str for s in {v})"
                value, arg = f"list({v})", f"tuple({arg})"
            elif hint is dict:
                want, test, inline = "JSON object", f"{test} and _is_json({v})", f"{{sorted_encode({v})}}"
                mutable.append("True")
            elif hint is float:  # any float, which ``_ENCODER`` writes, or JSON value: the bank checks the price
                want, test = "float or JSON value", f"{test} or _is_json({v})"
                mutable.append(f"type({v}) in (list, dict)")
            checks.append(f"    if not ({test}):\n        raise rejected({name!r}, {want!r}, {v})\n")
            text.append(f",{_esc(name)}:{inline or f'{{json_encode({value})}}'}")
            read.append(arg)
        env = {"__name__": cls.__module__, "_is_json": _is_json, "_INT_BOUND": _INT_BOUND, "rejected": _rejected,
               "esc": _esc, "json_encode": _ENCODER.encode, "sorted_encode": _SORTED_ENCODER.encode}
        source = (f"def to_json(self):\n    return f'''{''.join(text)}}}}}'''\n"
                  f"def check(self):\n{''.join(checks)}"
                  f"def from_fields(cls, f):\n    return cls({', '.join(read)})\n"
                  f"def holds_mutable(self):\n    return {' or '.join(mutable) or 'False'}\n")
        exec(compile(source, f"<generated {cls.__module__}.{cls.__qualname__}>", "exec"), env)
        for name in ("to_json", "check", "from_fields", "holds_mutable"):
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"
        cls.to_json, cls.check, cls.holds_mutable = env["to_json"], env["check"], env["holds_mutable"]
        cls.from_fields = classmethod(env["from_fields"])
        return cls
    return declare


@payload("issue")
class Issue:
    issuer: str
    wallet: str
    amount: int


@payload("agreement")
class AgreementRegistration:
    hmno: str
    vmno: str
    accepts: tuple[str, ...]
    charging: dict


@payload("attach")
class AttachCheck:
    roamer_wallet: str
    vmno: str
    hmno: str
    accepted: bool


@payload("channel_open")
class ChannelOpen:
    channel: str
    wallet: str
    vmno: str
    deposit: int
    hashlock: bytes
    timelock_expiry: int


@payload("channel_close")
class ChannelClose:
    channel: str
    paid: int
    refunded: int
    final_seq: int


@payload("redeem")
class Redeem:
    vmno: str
    hmno: str
    lots: tuple[str, ...]
    fiat: float


TxPayload = Issue | AgreementRegistration | AttachCheck | ChannelOpen | ChannelClose | Redeem
_PAYLOAD_CLASSES = get_args(TxPayload)   # a tuple: ``isinstance`` checks one faster than a union

_PAYLOAD_KINDS = {cls.kind: cls for cls in _PAYLOAD_CLASSES}


def payload_from_record(record: dict) -> TxPayload:
    """The payload of a transaction record, read by its ``kind``'s class."""
    kind = record.get("kind")
    cls = _PAYLOAD_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown payload kind {kind!r}")
    return cls.from_fields(record)


# --- transactions and blocks ------------------------------------------------


class _Proof:
    """The slot ``_proved``, which only ``load_blocks_jsonl`` sets, on a tx
    whose id it proved is the digest of the tx's ``_tx_text``, and whose
    payload holds no list or dict.  ``submit`` reads it to skip
    ``tx_digest``.  It is not a field: ``dataclasses.replace``, ``copy`` and
    ``pickle`` build a tx from its fields alone, so none of them carries it."""
    __slots__ = ("_proved",)


_prove = _Proof._proved.__set__   # a frozen record's ``__setattr__`` refuses every name


@record
class Transaction(_Proof):
    tx_id: bytes
    timestamp: int
    signer: str
    payload: TxPayload
    signature: bytes

    def to_json(self) -> str:
        """The tx's text in its block's line, ``_tx_line`` of its ``_tx_text``;
        the tests' oracle ``record_of`` states it from its fields."""
        return _tx_line(self, _tx_text(self.timestamp, self.signer, self.payload))

    @classmethod
    def from_record(cls, rec: dict) -> "Transaction":
        """The tx of a loaded record, whose values pass the door ``_check_tx``,
        the load's one type check of it.  ``load_blocks_jsonl`` then builds its
        ``_tx_text`` once and proves its id from that text."""
        timestamp, signer, payload = rec["timestamp"], rec["signer"], payload_from_record(rec["payload"])
        _check_tx(timestamp, signer, payload)
        return cls(bytes.fromhex(rec["tx_id"]), timestamp, signer, payload, bytes.fromhex(rec["signature"]))


def _check_tx(timestamp, signer, payload) -> None:
    """Raise PayloadRejected, naming the field, unless a tx's timestamp is
    exactly an int no longer than ``str`` writes, its signer a str, and its
    payload an instance of a payload class whose ``check`` passes: the one
    statement of the types ``_tx_text`` writes and ``Transaction.from_record``
    reads."""
    if type(timestamp) is not int or not -_INT_BOUND < timestamp < _INT_BOUND:
        raise _rejected("timestamp", "int", timestamp)
    if type(signer) is not str:
        raise _rejected("signer", "str", signer)
    if not isinstance(payload, _PAYLOAD_CLASSES):
        raise _rejected("payload", "TxPayload", payload)
    payload.check()


def _tx_text(timestamp: int, signer: str, payload: TxPayload) -> str:
    """``"timestamp":…,"signer":…,"payload":…``: what a tx's line holds
    between its id and its signature, and its id hashes in braces, written by
    one f-string and the payload's ``to_json``.  Its values have passed
    ``_check_tx``."""
    return f'"timestamp":{timestamp},"signer":{_esc(signer)},"payload":{payload.to_json()}'


def _tx_line(tx: Transaction, text: str) -> str:
    """``{"tx_id":"…",<text>,"signature":"…"}``: a tx's piece of its block's
    line, its ``_tx_text`` ``text`` between its id and signature."""
    return f'{{"tx_id":"{tx.tx_id.hex()}",{text},"signature":"{tx.signature.hex()}"}}'


def tx_digest(timestamp: int, signer: str, payload: TxPayload) -> bytes:
    """A tx's id: ``codec.digest`` of ``{"timestamp":…,"signer":…,"payload":…}``,
    the text of ``_tx_text`` in braces.  The one door for a tx's types: it
    runs ``_check_tx`` before any of that text is written."""
    _check_tx(timestamp, signer, payload)
    return codec.digest(f"{{{_tx_text(timestamp, signer, payload)}}}".encode())


def make_transaction(timestamp: int, signer: str, payload: TxPayload,
                     backend: codec.KeyedMacSigner) -> Transaction:
    """Build a signed transaction; tx_id commits to (timestamp, signer, payload).
    A signer ``backend`` holds no key of raises UnknownSigner."""
    tx_id = tx_digest(timestamp, signer, payload)
    if not backend.knows(signer):
        raise UnknownSigner(signer)
    return Transaction(tx_id, timestamp, signer, payload, backend.sign(signer, tx_id))


def _check_header(height, validator, sealed_at) -> None:
    """Raise PayloadRejected, naming the field, unless a block's height and
    sealed_at are exactly ints no longer than ``str`` writes and its validator
    a str: the types ``_block_header`` writes and ``Block.from_record`` reads."""
    for name, value, want in (("height", height, int), ("validator", validator, str), ("sealed_at", sealed_at, int)):
        if type(value) is not want or want is int and not -_INT_BOUND < value < _INT_BOUND:
            raise _rejected(name, want.__name__, value)


def _block_header(height: int, prev_hash: bytes, tx_root: bytes, validator: str, sealed_at: int) -> str:
    """``{"height":…,"prev_hash":"…","tx_root":"…","validator":…,"sealed_at":…}``:
    what a block's hash covers and its line starts with."""
    return _ENCODER.encode({"height": height, "prev_hash": prev_hash.hex(), "tx_root": tx_root.hex(),
                            "validator": validator, "sealed_at": sealed_at})


def block_digest(height: int, prev_hash: bytes, tx_root: bytes, validator: str, sealed_at: int) -> bytes:
    """A block's hash: ``codec.digest`` of its ``_block_header``.  The one
    door for a header's types: it runs ``_check_header`` before any text."""
    _check_header(height, validator, sealed_at)
    return codec.digest(_block_header(height, prev_hash, tx_root, validator, sealed_at).encode())


def _check_genesis(roster, keys: dict) -> None:
    """Genesis's door, which ``Ledger`` and ``Block.from_record`` run: raise
    ValueError for an empty roster, and PayloadRejected naming ``roster`` or
    ``keys`` for an actor that is not a str or a key that is not bytes."""
    if not roster:
        raise ValueError("roster must not be empty")
    if not all(type(actor) is str for actor in roster):
        raise _rejected("roster", "list of str", roster)
    bad = {actor: key for actor, key in keys.items() if type(actor) is not str or type(key) is not bytes}
    if bad:
        raise _rejected("keys", "dict of str to bytes", bad)


def _genesis_registry(roster, keys: dict) -> Iterator[str]:
    """``"roster":[…],"keys":{…}``, in pieces: what genesis's line ends
    with, and its tx_root hashes in braces.  The key registry is written in
    sorted order, in chunks of ``SAVE_CHUNK_KEYS`` entries."""
    yield f'"roster":{_ENCODER.encode(list(roster))},"keys":{{'
    actors = sorted(keys)
    for start in range(0, len(actors), SAVE_CHUNK_KEYS):
        # '"actor":"hex",...' without its braces.
        chunk = _ENCODER.encode({a: keys[a].hex() for a in actors[start:start + SAVE_CHUNK_KEYS]})[1:-1]
        yield f",{chunk}" if start else chunk
    yield "}"


@record
class Block:
    height: int
    prev_hash: bytes
    tx_root: bytes
    validator: str
    sealed_at: int
    block_hash: bytes
    txs: tuple[Transaction, ...] = ()
    # Genesis only: the consortium roster and actor key registry the chain
    # anchors to.  Covered by tx_root so the registry is tamper-evident.
    roster: tuple[str, ...] = ()
    keys: Optional[dict] = None

    @classmethod
    def from_record(cls, rec: dict) -> "Block":
        height, validator, sealed_at = rec["height"], rec["validator"], rec["sealed_at"]
        _check_header(height, validator, sealed_at)
        roster, keys = (), None
        if height == 0:
            roster, keys = rec["roster"], {actor: bytes.fromhex(key) for actor, key in rec["keys"].items()}
            _check_genesis(roster, keys)
        return cls(height, bytes.fromhex(rec["prev_hash"]), bytes.fromhex(rec["tx_root"]), validator, sealed_at,
                   bytes.fromhex(rec["block_hash"]), tuple(Transaction.from_record(t) for t in rec["txs"]),
                   tuple(roster), keys)


def _block_line(block: Block, tx_lines: Iterable[str]) -> Iterator[str]:
    """The one statement of a block's line, without its ``\\n``, in pieces:
    its ``_block_header`` and hash; ``tx_lines``, the ``_tx_line`` of each of
    its txs in order, in chunks of ``SAVE_CHUNK_TXS``; and for genesis its
    ``_genesis_registry``.  The tests' oracle, ``record_of``, states the same
    text from the block's fields.  ``save_jsonl`` writes it with each tx's
    ``to_json``, and ``load_blocks_jsonl`` accepts a line only if it is this
    text for the block it parsed to, with the tx lines it built."""
    header = _block_header(block.height, block.prev_hash, block.tx_root, block.validator, block.sealed_at)
    yield f'{header[:-1]},"block_hash":"{block.block_hash.hex()}","txs":['
    tx_lines, comma = iter(tx_lines), ""
    while chunk := ",".join(islice(tx_lines, SAVE_CHUNK_TXS)):   # a tx line is never empty
        yield comma + chunk
        comma = ","
    if block.height:
        yield "]}"
        return
    yield "],"
    yield from _genesis_registry(block.roster, block.keys)
    yield "}"


def _first_difference(text: str, block: Block, tx_lines: Iterable[str]) -> Optional[int]:
    """The first column at which ``text`` differs from ``block``'s line with
    ``tx_lines``, or None if it is that line.  Each piece is matched in place,
    so no second copy of the line is built."""
    end = 0
    for piece in _block_line(block, tx_lines):
        if not text.startswith(piece, end):
            return end + len(os.path.commonprefix([piece, text[end:end + len(piece)]]))
        end += len(piece)
    return None if end == len(text) else end


@dataclass
class ValidityReport:
    valid: bool
    first_invalid_height: Optional[int] = None
    reason: str = ""

    @property
    def exit_code(self) -> int:
        return 0 if self.valid else 1


class Ledger:
    """Single-writer chain: append or submit -> seal_block; ``all_txs`` and
    ``get_tx`` are the read paths."""

    def __init__(self, roster: list[str], keys: dict[str, bytes]):
        """Seal genesis, at time 0 as every ledger does, anchoring the roster
        and per-actor signing keys that pass ``_check_genesis``."""
        _check_genesis(roster, keys)
        self.roster: tuple[str, ...] = tuple(roster)
        self.signer_backend = codec.KeyedMacSigner(keys)
        self.chain: list[Block] = []
        self.pending: list[Transaction] = []
        self.tx_index: dict[bytes, Transaction] = {}   # every submitted tx, pending ones too
        self._appended: Optional[Transaction] = None   # the tx ``append`` just built
        self._bank: Optional[weakref.ref] = None
        keys, validator = self.signer_backend.keys, self.roster[0]
        tx_root = codec.digest(f'{{{"".join(_genesis_registry(self.roster, keys))}}}'.encode())
        block_hash = block_digest(0, ZERO_DIGEST, tx_root, validator, 0)
        self.chain.append(Block(0, ZERO_DIGEST, tx_root, validator, 0, block_hash, roster=self.roster, keys=keys))

    # -- write path

    def attach_bank(self, bank) -> None:
        """Check every later submit against ``bank.apply``.  Held weakly: the
        bank refers to this ledger, and a cycle would outlive the engine."""
        self._bank = weakref.ref(bank)

    def append(self, timestamp: int, signer: str, payload: TxPayload) -> bytes:
        """Build, sign and submit a tx: the live write path.  The tx passes
        the door, ``tx_digest``, in ``make_transaction``, and ``submit`` takes
        the tx_id and signature of this one object as that made them, and runs
        every other rule on it."""
        self._appended = tx = make_transaction(timestamp, signer, payload, self.signer_backend)
        return self.submit(tx)

    def submit(self, tx: Transaction) -> bytes:
        appended, self._appended = self._appended, None
        if tx is not appended:
            if type(tx.tx_id) is not bytes:
                raise _rejected("tx_id", "bytes", tx.tx_id)
            if type(tx.signature) is not bytes:
                raise _rejected("signature", "bytes", tx.signature)
            proved = getattr(tx, "_proved", False)   # unset on a tx the loader did not prove
            if not (proved or tx_digest(tx.timestamp, tx.signer, tx.payload) == tx.tx_id) \
                    or not self.signer_backend.verify(tx.signer, tx.tx_id, tx.signature):
                if not self.signer_backend.knows(tx.signer):
                    raise UnknownSigner(tx.signer)
                raise BadSignature(tx.tx_id.hex())
        if tx.tx_id in self.tx_index:
            raise DuplicateTx(tx.tx_id.hex())
        bank = self._bank and self._bank()
        if bank is not None:
            bank.apply(tx)
        self.pending.append(tx)
        self.tx_index[tx.tx_id] = tx
        return tx.tx_id

    def seal_block(self, now: int) -> Block:
        if not self.pending:
            raise EmptyPending("no pending transactions")
        height = len(self.chain)
        prev_hash = self.chain[-1].block_hash
        txs = tuple(self.pending)
        tx_root = codec.merkle_root([tx.tx_id for tx in txs])
        validator = self.roster[height % len(self.roster)]
        block_hash = block_digest(height, prev_hash, tx_root, validator, now)
        block = Block(height, prev_hash, tx_root, validator, now, block_hash, txs=txs)
        self.chain.append(block)
        self.pending = []
        return block

    # -- read path

    def get_tx(self, tx_id: bytes) -> Optional[Transaction]:
        return self.tx_index.get(tx_id)

    def all_txs(self) -> Iterator[Transaction]:
        """Sealed transactions in chain order."""
        for block in self.chain:
            yield from block.txs

    # -- persistence

    def save_jsonl(self, path) -> None:
        """One line per block of ``chain``, its ``_block_line``, written a
        piece at a time: so at once it holds one header plus one chunk of
        text.  Each tx in ``chain`` passed the door."""
        with open(path, "w", encoding="utf-8") as fh:
            for block in self.chain:
                fh.writelines(_block_line(block, map(Transaction.to_json, block.txs)))
                fh.write("\n")


# The txs, and the genesis key entries, one ``save_jsonl`` chunk writes at once.
SAVE_CHUNK_TXS = 64
SAVE_CHUNK_KEYS = 256


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# Built once: ``json.loads`` with a keyword builds a new decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _proved_line(tx: Transaction) -> str:
    """A loaded tx's ``_tx_line``, built from its one ``_tx_text``; the tx is
    marked proved if its payload holds no list or dict and its id is the
    digest of that text in braces, the id ``tx_digest`` would give."""
    text = _tx_text(tx.timestamp, tx.signer, tx.payload)
    if not tx.payload.holds_mutable() and codec.digest(f"{{{text}}}".encode()) == tx.tx_id:
        _prove(tx, True)
    return _tx_line(tx, text)


def load_blocks_jsonl(path) -> list[Block]:
    """Parse a persisted chain; raises LedgerParseError with the bad line.
    A line is accepted only if it is the ``_block_line`` of the block it
    parses to, byte for byte: the line ``save_jsonl`` writes for that block,
    with no other spacing, escape, key order or key, and no ``\\r``.
    ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, and no live record
    holds them.  Lines split at ``\\n`` only, and a final ``\\n`` ends the last
    line.  The file is read a line at a time: besides the blocks built so
    far, it holds one line plus that line's parsed records at once.  Each
    tx's ``_tx_text`` is built once, for its piece of the line and its id's
    proof (see ``_Proof``)."""
    blocks = []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            try:
                text = str(memoryview(line)[:-1] if line.endswith(b"\n") else line, "utf-8")
                block = Block.from_record(_DECODER.decode(text))
                column = _first_difference(text, block, (_proved_line(tx) for tx in block.txs))
                if column is not None:
                    raise ValueError(f"column {column} differs from the line save_jsonl writes for its block")
                blocks.append(block)
            except Exception as exc:
                raise LedgerParseError(i, str(exc)) from None
    return blocks

