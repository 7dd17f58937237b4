"""Append-only consortium ledger with deterministic round-robin sealing.

Consensus is intentionally trivial: a fixed roster seals blocks in turn and
every hash is recomputable, so two identical submission sequences produce
byte-identical chains.  Confidentiality is modeled through per-channel read
scopes enforced at query time.

``submit`` and ``seal_block`` state every chain rule once, and ``submit``
also runs the token rules of the bank attached with ``attach_bank``.
``verify_blocks`` replays a persisted chain through a fresh ledger and
compares each resealed block with the stored one, so a chain verifies only
if the live ledger could have written it.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from . import codec
from .codec import ZERO_DIGEST, Signer
from .errors import (
    BadSignature,
    DuplicateTx,
    EmptyPending,
    LedgerParseError,
    UnknownReader,
    UnknownSigner,
)

# --- transaction payloads ---------------------------------------------------


@dataclass(frozen=True)
class Issue:
    issuer: str
    wallet: str
    amount: int
    kind = "issue"

    def to_fields(self) -> dict:
        return {"issuer": self.issuer, "wallet": self.wallet, "amount": self.amount}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


TxPayload = Issue | AgreementRegistration | AttachCheck | ChannelOpen | ChannelClose | Redeem

_PAYLOAD_KINDS = {
    cls.kind: cls
    for cls in (Issue, AgreementRegistration, AttachCheck, ChannelOpen, ChannelClose, Redeem)
}


def payload_canonical(payload: TxPayload) -> list:
    return [payload.kind, payload.to_fields()]


def payload_from_record(record: dict) -> TxPayload:
    """The payload of a transaction record: its ``kind`` plus its ``to_fields()``."""
    fields = dict(record)
    kind = fields.pop("kind")
    cls = _PAYLOAD_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown payload kind {kind!r}")
    if kind == "agreement":
        fields["accepts"] = tuple(fields["accepts"])
    elif kind == "channel_open":
        fields["hashlock"] = bytes.fromhex(fields["hashlock"])
    elif kind == "redeem":
        fields["lots"] = tuple(fields["lots"])
    return cls(**fields)


# --- transactions and blocks ------------------------------------------------


@dataclass(frozen=True)
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
        return cls(bytes.fromhex(rec["tx_id"]), int(rec["timestamp"]), rec["signer"],
                   payload_from_record(rec["payload"]), bytes.fromhex(rec["signature"]))


def tx_digest(timestamp: int, signer: str, payload: TxPayload) -> bytes:
    return codec.digest([timestamp, signer, payload_canonical(payload)])


def make_transaction(timestamp: int, signer: str, payload: TxPayload, backend: Signer) -> Transaction:
    """Build a signed transaction; tx_id commits to (timestamp, signer, payload)."""
    tx_id = tx_digest(timestamp, signer, payload)
    return Transaction(tx_id, timestamp, signer, payload, backend.sign(signer, tx_id))


def block_digest(height: int, prev_hash: bytes, tx_root: bytes, validator: str, sealed_at: int) -> bytes:
    return codec.digest([height, prev_hash, tx_root, validator, sealed_at])


@dataclass(frozen=True)
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
        return cls(
            height=int(rec["height"]),
            prev_hash=bytes.fromhex(rec["prev_hash"]),
            tx_root=bytes.fromhex(rec["tx_root"]),
            validator=rec["validator"],
            sealed_at=int(rec["sealed_at"]),
            block_hash=bytes.fromhex(rec["block_hash"]),
            txs=tuple(Transaction.from_record(t) for t in rec["txs"]),
            roster=tuple(rec.get("roster", ())),
            keys={a: bytes.fromhex(k) for a, k in rec.get("keys", {}).items()},
        )


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
        self.tx_index: dict[bytes, tuple[int, int]] = {}
        self.channel_scopes: dict[str, frozenset[str]] = {}
        self._known_ids: set[bytes] = set()
        self._bank: Optional[weakref.ref] = None
        self._keys = dict(keys)
        self._seal_genesis(genesis_time)

    @classmethod
    def from_genesis(cls, genesis: Block) -> "Ledger":
        """A fresh ledger anchored to a persisted genesis block's roster, keys and time."""
        return cls(list(genesis.roster), genesis.keys, genesis.sealed_at)

    # -- construction helpers

    def _seal_genesis(self, now: int) -> None:
        tx_root = codec.digest(["genesis", list(self.roster),
                                {a: k.hex() for a, k in sorted(self._keys.items())}])
        validator = self.roster[0]
        block_hash = block_digest(0, ZERO_DIGEST, tx_root, validator, now)
        self.chain.append(
            Block(0, ZERO_DIGEST, tx_root, validator, now, block_hash,
                  roster=self.roster, keys=dict(self._keys))
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
        if tx.tx_id in self._known_ids:
            raise DuplicateTx(tx.tx_id.hex())
        bank = self._bank and self._bank()
        if bank is not None:
            bank.apply(tx)
        self.pending.append(tx)
        self._known_ids.add(tx.tx_id)
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
        for pos, tx in enumerate(txs):
            self.tx_index[tx.tx_id] = (height, pos)
        self.pending = []
        return block

    def grant_channel_scope(self, channel: str, readers: set[str]) -> None:
        self.channel_scopes[channel] = frozenset(readers)

    # -- read path

    def verify_chain(self) -> ValidityReport:
        return verify_blocks(self.chain)

    def get_tx(self, tx_id: bytes) -> Optional[Transaction]:
        loc = self.tx_index.get(tx_id)
        if loc is not None:
            height, pos = loc
            return self.chain[height].txs[pos]
        for tx in self.pending:
            if tx.tx_id == tx_id:
                return tx
        return None

    def all_txs(self) -> Iterator[Transaction]:
        """Sealed transactions in chain order."""
        for block in self.chain:
            yield from block.txs

    def _visible(self, tx: Transaction, reader: str) -> bool:
        payload = tx.payload
        if isinstance(payload, (ChannelOpen, ChannelClose)):
            scope = self.channel_scopes.get(payload.channel, frozenset())
            return reader in scope
        if isinstance(payload, Issue):
            return reader == payload.issuer
        return True

    def query(self, reader: str, flt: QueryFilter) -> list[Transaction]:
        if reader not in self.roster:
            raise UnknownReader(reader)
        out = []
        for tx in self.all_txs():
            if not self._visible(tx, reader):
                continue
            if flt.kind is not None and tx.payload.kind != flt.kind:
                continue
            if flt.signer is not None and tx.signer != flt.signer:
                continue
            if flt.wallet is not None and getattr(tx.payload, "wallet", None) != flt.wallet \
                    and getattr(tx.payload, "roamer_wallet", None) != flt.wallet:
                continue
            if flt.channel is not None and getattr(tx.payload, "channel", None) != flt.channel:
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


def verify_blocks(chain: list[Block], ledger: Optional[Ledger] = None) -> ValidityReport:
    """Replay a chain through ``ledger`` (default: a bare ``Ledger.from_genesis``
    of it; attach a bank for the token rules); report the first failing height.

    Each later block's transactions are submitted and the block is resealed
    at its stored time; each resealed block must equal the stored one.  An
    empty chain is vacuously valid.
    """
    if not chain:
        return ValidityReport(True)
    height, tx = 0, None
    try:
        if ledger is None:
            ledger = Ledger.from_genesis(chain[0])
        for height, block in enumerate(chain):
            if height:
                for tx in block.txs:
                    ledger.submit(tx)
                tx = None
                ledger.seal_block(block.sealed_at)
            resealed = ledger.chain[height]
            if resealed != block:
                name = next(f.name for f in fields(Block)
                            if getattr(resealed, f.name) != getattr(block, f.name))
                return ValidityReport(False, height, f"{name} mismatch")
    except Exception as exc:  # a loaded chain can hold anything
        rejected = "block" if tx is None else f"{tx.payload.kind} tx"
        return ValidityReport(False, height, f"{rejected} rejected: {type(exc).__name__}: {exc}")
    return ValidityReport(True)
