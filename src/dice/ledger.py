"""Append-only consortium ledger with deterministic round-robin sealing.

Consensus is intentionally trivial: a fixed roster seals blocks in turn and
every hash is recomputable, so two identical submission sequences produce
byte-identical chains.  Confidentiality is modeled through read scopes
``query`` derives from the sealed transactions, as a replay would.

``submit`` and ``seal_block`` state every chain rule once, and ``submit``
also runs the payload's type check (the one the loader runs) and the token
rules of the bank attached with ``attach_bank``.  The live engine writes
through ``append``, which digests and signs a tx once and hands it to
``submit``; ``submit`` re-digests every other tx it is given.
``tokenbank.verify_blocks`` replays a persisted chain through a fresh ledger
and bank, so a chain verifies only if the live engine could have written
it.  A loaded record must have exactly the keys ``to_record`` writes.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterator, Optional, get_origin, get_type_hints

from . import codec
from .codec import ZERO_DIGEST
from .errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    PayloadRejected,
    UnknownReader,
    UnknownSigner,
)

# --- immutable records ------------------------------------------------------


class _Factory:
    """The default of an argument whose field has a ``default_factory``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def record(cls):
    """``dataclass(frozen=True, slots=True)``, with an ``__init__`` that stores
    each argument through its slot's member descriptor.

    The frozen dataclass ``__init__`` stores each field through
    ``object.__setattr__``, which looks the slot up by name on every call.
    This one, generated once per class as ``dataclasses`` generates its own,
    has the same signature, defaults and ``default_factory`` calls.  Fields
    are positional-or-keyword, and a record has no ``__post_init__``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    flds = fields(cls)
    if any(not f.init or f.kw_only for f in flds) or hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a record has positional fields and no __post_init__")
    env = {"__name__": cls.__module__, "_FACTORY": _FACTORY}
    params, body = [], []
    for f in flds:
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        value = f.name
        if f.default is not MISSING:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        elif f.default_factory is not MISSING:
            env[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_FACTORY")
            value = f"_factory_{f.name}() if {f.name} is _FACTORY else {f.name}"
        else:
            params.append(f.name)
        body.append(f"    _set_{f.name}(self, {value})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


# --- transaction payloads ---------------------------------------------------


def _hex_field(rec: dict, key: str) -> bytes:
    """The bytes of ``rec[key]``, which must be their lower-case hex, as the
    live ledger writes them (``bytes.fromhex`` also reads upper case)."""
    value = rec[key]
    raw = bytes.fromhex(value)
    if raw.hex() != value:
        raise ValueError(f"{key} must be lower-case hex, not {value!r}")
    return raw


def _str_list_field(rec: dict, key: str) -> tuple:
    """``rec[key]``, which must be a list of str, as a tuple: ``tuple`` would
    also read a str, as the tuple of its characters."""
    value = rec[key]
    if not (type(value) is list and all(type(s) is str for s in value)):
        raise ValueError(f"{key} must be of type list of str, not {value!r}")
    return tuple(value)


def payload(kind: str):
    """``record``, plus the payload's wire form and field types stated by its
    fields alone: ``to_fields``, ``from_fields`` and ``check``, generated once
    per class like the ``__init__`` of ``record``.  ``to_fields`` and
    ``from_fields`` write and read the fields in declared order: a ``bytes``
    field as lower-case hex read back through ``_hex_field``, a ``tuple``
    field as a JSON list read back through ``_str_list_field``, any other as
    is.  ``check`` raises PayloadRejected unless each str, int, bool, bytes or
    dict field holds exactly that type, and each tuple field a tuple of str;
    ``from_fields`` and ``Ledger.submit`` call it."""
    def declare(cls):
        cls.kind = kind
        cls = record(cls)
        hints = get_type_hints(cls)
        written, checks, read = [], [], []
        for name in (f.name for f in fields(cls)):
            hint = get_origin(hints[name]) or hints[name]
            value, arg = f"self.{name}", f"f[{name!r}]"
            if hint is bytes:
                value, arg = f"{value}.hex()", f"_hex_field(f, {name!r})"
            elif hint is tuple:
                value, arg = f"list({value})", f"_str_list_field(f, {name!r})"
            if hint is not float:  # a float is left to the bank
                want, test = hint.__name__, f"type(self.{name}) is {hint.__name__}"
                if hint is tuple:
                    want, test = "tuple of str", f"{test} and all(type(s) is str for s in self.{name})"
                checks.append(f"    if not ({test}):\n        raise PayloadRejected("
                              f"f'{name} must be of type {want}, not {{self.{name}!r}}')\n")
            written.append(f"{name!r}: {value}")
            read.append(arg)
        env = {"__name__": cls.__module__, "_hex_field": _hex_field,
               "_str_list_field": _str_list_field, "PayloadRejected": PayloadRejected}
        exec(f"def to_fields(self):\n    return {{{', '.join(written)}}}\n"
             f"def check(self):\n{''.join(checks)}"
             f"def from_fields(cls, f):\n    p = cls({', '.join(read)})\n    p.check()\n    return p\n", env)
        for name in ("to_fields", "check", "from_fields"):
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"
        cls.to_fields, cls.check = env["to_fields"], env["check"]
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

# Per kind: its payload class and the keys of its records.
_PAYLOAD_KINDS = {
    cls.kind: (cls, frozenset(["kind", *(f.name for f in fields(cls))]))
    for cls in (Issue, AgreementRegistration, AttachCheck, ChannelOpen, ChannelClose, Redeem)
}


def payload_canonical(payload: TxPayload) -> list:
    return [payload.kind, payload.to_fields()]


def _require_keys(record: dict, keys: frozenset, what: str) -> None:
    """Exactly the keys the live ledger writes: no hash covers any other."""
    if record.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(record)}, not {sorted(keys)}")


def payload_from_record(record: dict) -> TxPayload:
    """The payload of a transaction record: its ``kind`` plus exactly the keys
    of that kind's ``to_fields()``."""
    kind = record.get("kind")
    cls, keys = _PAYLOAD_KINDS.get(kind, (None, None))
    if cls is None:
        raise ValueError(f"unknown payload kind {kind!r}")
    _require_keys(record, keys, f"{kind} payload")
    return cls.from_fields(record)


# --- transactions and blocks ------------------------------------------------


def _int_field(rec: dict, key: str) -> int:
    """``rec[key]``, which must be an int, bool excluded: the live ledger
    writes nothing else there, so a string or float is not coerced."""
    value = rec[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an int, not {value!r}")
    return value


@record
class Transaction:
    tx_id: bytes
    timestamp: int
    signer: str
    payload: TxPayload
    signature: bytes

    def to_record(self) -> dict:
        return {
            "tx_id": self.tx_id.hex(),
            "timestamp": self.timestamp,
            "signer": self.signer,
            "payload": {"kind": self.payload.kind, **self.payload.to_fields()},
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Transaction":
        _require_keys(rec, _TX_KEYS, "tx")
        return cls(_hex_field(rec, "tx_id"), _int_field(rec, "timestamp"), rec["signer"],
                   payload_from_record(rec["payload"]), _hex_field(rec, "signature"))


_TX_KEYS = frozenset(f.name for f in fields(Transaction))

# Per payload class, the layout of its transactions' signed value
# ``[timestamp, signer, [kind, fields]]``, built on first use.
_TX_LAYOUTS: dict[type, codec.RecordLayout] = {}


def tx_digest(timestamp: int, signer: str, payload: TxPayload) -> bytes:
    """``codec.digest([timestamp, signer, payload_canonical(payload)])``, hashed
    from the layout of the payload's class (its ``to_fields`` keys are fixed)."""
    canonical = payload.to_fields()
    layout = _TX_LAYOUTS.get(type(payload))
    if layout is None:
        layout = _TX_LAYOUTS[type(payload)] = codec.RecordLayout(2, payload.kind, canonical)
    return layout.digest((timestamp, signer), canonical)


def make_transaction(timestamp: int, signer: str, payload: TxPayload,
                     backend: codec.KeyedMacSigner) -> Transaction:
    """Build a signed transaction; tx_id commits to (timestamp, signer, payload)."""
    tx_id = tx_digest(timestamp, signer, payload)
    return Transaction(tx_id, timestamp, signer, payload, backend.sign(signer, tx_id))


def block_digest(height: int, prev_hash: bytes, tx_root: bytes, validator: str, sealed_at: int) -> bytes:
    return codec.digest([height, prev_hash, tx_root, validator, sealed_at])


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
    keys: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "height": self.height,
            "prev_hash": self.prev_hash.hex(),
            "tx_root": self.tx_root.hex(),
            "validator": self.validator,
            "sealed_at": self.sealed_at,
            "block_hash": self.block_hash.hex(),
            "txs": [tx.to_record() for tx in self.txs],
        }
        if self.height == 0:
            rec["roster"] = list(self.roster)
            rec["keys"] = {a: k.hex() for a, k in sorted(self.keys.items())}
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Block":
        height = _int_field(rec, "height")
        _require_keys(rec, _GENESIS_KEYS if height == 0 else _BLOCK_KEYS, "block")
        keys = rec.get("keys", {})
        return cls(
            height=height,
            prev_hash=_hex_field(rec, "prev_hash"),
            tx_root=_hex_field(rec, "tx_root"),
            validator=rec["validator"],
            sealed_at=_int_field(rec, "sealed_at"),
            block_hash=_hex_field(rec, "block_hash"),
            txs=tuple(Transaction.from_record(t) for t in rec["txs"]),
            roster=_str_list_field(rec, "roster") if height == 0 else (),
            keys={actor: _hex_field(keys, actor) for actor in keys},
        )


# A block record's keys; genesis adds the roster and the key registry.
_GENESIS_KEYS = frozenset(f.name for f in fields(Block))
_BLOCK_KEYS = _GENESIS_KEYS - {"roster", "keys"}


@dataclass
class ValidityReport:
    valid: bool
    first_invalid_height: Optional[int] = None
    reason: str = ""

    @property
    def exit_code(self) -> int:
        return 0 if self.valid else 1


@dataclass
class QueryFilter:
    kind: Optional[str] = None
    signer: Optional[str] = None
    wallet: Optional[str] = None
    channel: Optional[str] = None


class Ledger:
    """Single-writer chain: append or submit -> seal; verify and query are read-only.

    The genesis block is sealed at construction and anchors the roster and
    the per-actor signing keys.
    """

    def __init__(self, roster: list[str], keys: dict[str, bytes], genesis_time: int = 0):
        if not roster:
            raise ValueError("roster must not be empty")
        self.roster: tuple[str, ...] = tuple(roster)
        self.signer_backend = codec.KeyedMacSigner(keys)
        self.chain: list[Block] = []
        self.pending: list[Transaction] = []
        self.tx_index: dict[bytes, Transaction] = {}   # every submitted tx, pending ones too
        self._appended: Optional[Transaction] = None   # the tx ``append`` just built
        self._bank: Optional[weakref.ref] = None
        self._seal_genesis(genesis_time)

    @classmethod
    def from_genesis(cls, genesis: Block) -> "Ledger":
        """A fresh ledger anchored to a persisted genesis block's roster, keys and time."""
        return cls(list(genesis.roster), genesis.keys, genesis.sealed_at)

    # -- construction helpers

    def _seal_genesis(self, now: int) -> None:
        keys = self.signer_backend.keys
        tx_root = codec.digest(["genesis", list(self.roster),
                                {a: k.hex() for a, k in sorted(keys.items())}])
        validator = self.roster[0]
        block_hash = block_digest(0, ZERO_DIGEST, tx_root, validator, now)
        self.chain.append(
            Block(0, ZERO_DIGEST, tx_root, validator, now, block_hash, roster=self.roster, keys=keys)
        )

    # -- write path

    def attach_bank(self, bank) -> None:
        """Check every later submit against ``bank.apply``.  Held weakly: the
        bank refers to this ledger, and a cycle would outlive the engine."""
        self._bank = weakref.ref(bank)

    def append(self, timestamp: int, signer: str, payload: TxPayload) -> bytes:
        """Build, sign and submit a tx: the live write path.  ``submit`` takes
        the tx_id of this one object as ``make_transaction`` digested it, and
        runs every other rule on it; an unknown signer raises UnknownSigner."""
        if not self.signer_backend.knows(signer):
            raise UnknownSigner(signer)
        self._appended = tx = make_transaction(timestamp, signer, payload, self.signer_backend)
        return self.submit(tx)

    def submit(self, tx: Transaction) -> bytes:
        appended, self._appended = self._appended, None
        if (tx is not appended and tx_digest(tx.timestamp, tx.signer, tx.payload) != tx.tx_id) \
                or not self.signer_backend.verify(tx.signer, tx.tx_id, tx.signature):
            if not self.signer_backend.knows(tx.signer):
                raise UnknownSigner(tx.signer)
            raise BadSignature(tx.tx_id.hex())
        if tx.tx_id in self.tx_index:
            raise DuplicateTx(tx.tx_id.hex())
        tx.payload.check()
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

    def query(self, reader: str, flt: QueryFilter) -> list[Transaction]:
        """The sealed txs ``reader`` may see that match ``flt``, in chain order.
        An Issue is seen by its issuer; a channel's open and close by its VMNO
        and its wallet's home, the issuer of the first Issue into that wallet
        earlier in the chain; every other kind by everyone."""
        if reader not in self.roster:
            raise UnknownReader(reader)
        homes: dict[str, str] = {}                 # wallet -> its home
        channel_readers: dict[str, tuple] = {}     # channel -> (vmno, home)
        out = []
        for tx in self.all_txs():
            p = tx.payload
            if isinstance(p, Issue):
                homes.setdefault(p.wallet, p.issuer)
                visible = reader == p.issuer
            elif isinstance(p, ChannelOpen):
                readers = channel_readers[p.channel] = (p.vmno, homes.get(p.wallet))
                visible = reader in readers
            elif isinstance(p, ChannelClose):
                visible = reader in channel_readers.get(p.channel, ())
            else:
                visible = True
            if not visible:
                continue
            if flt.kind is not None and p.kind != flt.kind:
                continue
            if flt.signer is not None and tx.signer != flt.signer:
                continue
            if flt.wallet is not None and getattr(p, "wallet", None) != flt.wallet \
                    and getattr(p, "roamer_wallet", None) != flt.wallet:
                continue
            if flt.channel is not None and getattr(p, "channel", None) != flt.channel:
                continue
            out.append(tx)
        return out

    # -- persistence

    def save_jsonl(self, path) -> None:
        """One line per block, ``json.dumps(block.to_record(), separators=(",",
        ":"))``, written in pieces: the record of the block without its txs is
        encoded once and split at its empty tx list, and the txs go between
        in chunks of ``SAVE_CHUNK_TXS`` records.  So at once it holds one
        header (a whole line only for genesis, whose roster and keys it
        carries) plus one chunk of records and their text."""
        encode = _ENCODER.encode
        with open(path, "w", encoding="utf-8") as fh:
            write = fh.write
            for block in self.chain:
                head, _, tail = encode(replace(block, txs=()).to_record()).partition(_EMPTY_TXS)
                write(head + '"txs":[')
                txs = block.txs
                for start in range(0, len(txs), SAVE_CHUNK_TXS):
                    if start:
                        write(",")
                    # "[rec,...,rec]" without its brackets.
                    write(encode([tx.to_record() for tx in txs[start:start + SAVE_CHUNK_TXS]])[1:-1])
                write("]" + tail + "\n")


# The tx records one ``save_jsonl`` chunk builds and encodes at once.
SAVE_CHUNK_TXS = 64

# ``json.dumps(..., separators=(",", ":"))``'s encoder, built once.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

# A header's empty tx list.  A string value cannot hold it (its quotes are
# escaped), so its first occurrence is the ``txs`` key's.
_EMPTY_TXS = '"txs":[]'


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# Built once: ``json.loads`` with a keyword builds a new decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def load_blocks_jsonl(path) -> list[Block]:
    """Parse a persisted chain; raises LedgerParseError with the bad line.
    ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, and no live record
    holds them.  Lines split at ``\\n`` only, and a final ``\\n`` ends the last
    line.  The file is read a line at a time: besides the blocks built so
    far, it holds one line plus that line's parsed records at once."""
    blocks = []
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            try:
                text = str(memoryview(line)[:-1] if line.endswith(b"\n") else line, "utf-8")
                blocks.append(Block.from_record(_DECODER.decode(text)))
            except Exception as exc:
                raise LedgerParseError(i, str(exc)) from None
    return blocks

