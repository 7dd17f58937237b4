"""Append-only consortium ledger with deterministic round-robin sealing.

Consensus is intentionally trivial: a fixed roster seals blocks in turn and
every hash is recomputable, so two identical submission sequences produce
byte-identical chains.  Confidentiality is modeled through read scopes
``query`` derives from the sealed transactions, as a replay would.

``submit`` and ``seal_block`` state every chain rule once, and ``submit``
also runs the token rules of the bank attached with ``attach_bank``.
``tokenbank.verify_blocks`` replays a persisted chain through a fresh ledger
and bank, so a chain verifies only if the live engine could have written
it.  A loaded record must have exactly the keys ``to_record`` writes.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from . import codec
from .codec import ZERO_DIGEST
from .errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    UnknownReader,
    UnknownSigner,
)

# --- transaction payloads ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class Issue:
    issuer: str
    wallet: str
    amount: int
    kind = "issue"

    def to_fields(self) -> dict:
        return {"issuer": self.issuer, "wallet": self.wallet, "amount": self.amount}

    @classmethod
    def from_fields(cls, f: dict) -> "Issue":
        return cls(f["issuer"], f["wallet"], f["amount"])


@dataclass(frozen=True, slots=True)
class AgreementRegistration:
    hmno: str
    vmno: str
    accepts: tuple[str, ...]
    charging: dict
    kind = "agreement"

    def to_fields(self) -> dict:
        return {
            "hmno": self.hmno,
            "vmno": self.vmno,
            "accepts": list(self.accepts),
            "charging": self.charging,
        }

    @classmethod
    def from_fields(cls, f: dict) -> "AgreementRegistration":
        return cls(f["hmno"], f["vmno"], tuple(f["accepts"]), f["charging"])


@dataclass(frozen=True, slots=True)
class AttachCheck:
    roamer_wallet: str
    vmno: str
    hmno: str
    accepted: bool
    kind = "attach"

    def to_fields(self) -> dict:
        return {
            "roamer_wallet": self.roamer_wallet,
            "vmno": self.vmno,
            "hmno": self.hmno,
            "accepted": self.accepted,
        }

    @classmethod
    def from_fields(cls, f: dict) -> "AttachCheck":
        return cls(f["roamer_wallet"], f["vmno"], f["hmno"], f["accepted"])


@dataclass(frozen=True, slots=True)
class ChannelOpen:
    channel: str
    wallet: str
    vmno: str
    deposit: int
    hashlock: bytes
    timelock_expiry: int
    kind = "channel_open"

    def to_fields(self) -> dict:
        return {
            "channel": self.channel,
            "wallet": self.wallet,
            "vmno": self.vmno,
            "deposit": self.deposit,
            "hashlock": self.hashlock.hex(),
            "timelock_expiry": self.timelock_expiry,
        }

    @classmethod
    def from_fields(cls, f: dict) -> "ChannelOpen":
        return cls(f["channel"], f["wallet"], f["vmno"], f["deposit"], bytes.fromhex(f["hashlock"]),
                   f["timelock_expiry"])


@dataclass(frozen=True, slots=True)
class ChannelClose:
    channel: str
    paid: int
    refunded: int
    final_seq: int
    kind = "channel_close"

    def to_fields(self) -> dict:
        return {
            "channel": self.channel,
            "paid": self.paid,
            "refunded": self.refunded,
            "final_seq": self.final_seq,
        }

    @classmethod
    def from_fields(cls, f: dict) -> "ChannelClose":
        return cls(f["channel"], f["paid"], f["refunded"], f["final_seq"])


@dataclass(frozen=True, slots=True)
class Redeem:
    vmno: str
    hmno: str
    lots: tuple[str, ...]
    fiat: float
    kind = "redeem"

    def to_fields(self) -> dict:
        return {
            "vmno": self.vmno,
            "hmno": self.hmno,
            "lots": list(self.lots),
            "fiat": self.fiat,
        }

    @classmethod
    def from_fields(cls, f: dict) -> "Redeem":
        return cls(f["vmno"], f["hmno"], tuple(f["lots"]), f["fiat"])


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


@dataclass(frozen=True, slots=True)
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
        return cls(bytes.fromhex(rec["tx_id"]), _int_field(rec, "timestamp"), rec["signer"],
                   payload_from_record(rec["payload"]), bytes.fromhex(rec["signature"]))


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


@dataclass(frozen=True, slots=True)
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
        return cls(
            height=height,
            prev_hash=bytes.fromhex(rec["prev_hash"]),
            tx_root=bytes.fromhex(rec["tx_root"]),
            validator=rec["validator"],
            sealed_at=_int_field(rec, "sealed_at"),
            block_hash=bytes.fromhex(rec["block_hash"]),
            txs=tuple(Transaction.from_record(t) for t in rec["txs"]),
            roster=tuple(rec.get("roster", ())),
            keys={a: bytes.fromhex(k) for a, k in rec.get("keys", {}).items()},
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
    """Single-writer chain: submit -> seal; verify and query are read-only.

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

    def submit(self, tx: Transaction) -> bytes:
        if tx_digest(tx.timestamp, tx.signer, tx.payload) != tx.tx_id \
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
        with open(path, "w", encoding="utf-8") as fh:
            for block in self.chain:
                fh.write(json.dumps(block.to_record(), separators=(",", ":")) + "\n")


def load_blocks_jsonl(path) -> list[Block]:
    """Parse a persisted chain; raises LedgerParseError with the bad line."""
    blocks = []
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line.decode("utf-8"))
            blocks.append(Block.from_record(rec))
        except Exception as exc:
            raise LedgerParseError(i, str(exc)) from None
    return blocks

