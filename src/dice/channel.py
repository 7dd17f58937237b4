"""Unidirectional roamer-to-VMNO payment channels.

Two on-chain transactions per channel (open, close); everything in between
is signed off-chain balance proofs, one per completed 100KB traffic block.
The hashed time-lock works as usual: the first proof reveals the preimage
the VMNO needs to claim funds, and an unclaimed deposit refunds to the
roamer after expiry.

Both sides of a channel live on one ``PaymentChannel`` record: the
``ChannelOpen`` payload it submitted and, once closed, its ``ChannelClose``
payload; the roamer's preimage; the VMNO's latest accepted proof; and the
traffic metered, whose whole blocks, ``last_seq``, the roamer has paid (proof
``seq`` and ``cumulative`` both count paid blocks).  ``ChannelManager(ledger, bank)``
signs and verifies with the ledger's key registry; channel ids count the
channels, and ``proofs_accepted`` sums each one's latest accepted seq.

The roamer MACs each proof's bytes, the JSON text
``["proof","ch-…",seq,cumulative]``, with no digest in between.
``proof_format(channel_id)`` states those bytes once, as a ``%``-format
with each ``%`` of the id's JSON text doubled; the record keeps its
channel's format, built once at open, and both sides fill it with
``% (seq, cumulative)``.  The VMNO takes only a seq and cumulative that are
exactly ints, so no other value (``True``, ``1.0``) reads as an int a MAC
covers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from . import codec
from .errors import (
    BadPreimage,
    BadSignature,
    ChannelNotOpen,
    Expired,
    GapSeq,
    NonPositiveAmount,
    Overdraft,
    StaleProof,
    UnknownChannel,
)
from .ledger import ChannelClose, ChannelOpen, Ledger, record
from .tokenbank import TOKEN_BLOCK_BYTES, TokenBank

OPEN, CLOSED = "open", "closed"

DEFAULT_TIMELOCK_WINDOW = 7 * 86_400     # longer than the typical stay
DEFAULT_INACTIVITY_WINDOW = 86_400       # auto-close after a day of silence


def proof_format(channel_id: str) -> bytes:
    """The bytes a balance proof's MAC covers, ``["proof",<channel id as
    JSON>,%d,%d]``, as a ``%``-format that ``% (seq, cumulative)`` fills.
    Each ``%`` of the id's JSON text is doubled, so it reads as itself."""
    return b'["proof",%b,%%d,%%d]' % json.encoder.encode_basestring_ascii(channel_id).encode().replace(b"%", b"%%")


@record
class BalanceProof:
    channel_id: str
    seq: int
    cumulative: int
    preimage: Optional[bytes]  # present only on seq 1
    signature: bytes

    def to_record(self) -> dict:
        return {
            "channel_id": self.channel_id,
            "seq": self.seq,
            "cumulative": self.cumulative,
            "preimage": self.preimage.hex() if self.preimage else None,
            "signature": self.signature.hex(),
        }


@dataclass(slots=True)
class PaymentChannel:
    opened: ChannelOpen           # the on-chain open, as submitted
    open_tx: bytes
    roamer: str                   # signs the balance proofs
    last_activity: int
    preimage: bytes = b""         # roamer side: the hashlock's secret
    latest: Optional[BalanceProof] = None   # VMNO side: the latest accepted proof
    bytes_total: int = 0          # serviced bytes (capped by the deposit)
    unserviced_bytes: int = 0
    closed: Optional[ChannelClose] = None   # the on-chain close, once submitted
    close_tx: Optional[bytes] = None
    # The channel's ``proof_format``, which both sides fill with % (seq, cumulative).
    proof_format: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.proof_format = proof_format(self.opened.channel)

    @property
    def last_seq(self) -> int:
        """Roamer side: the blocks paid, one proof each."""
        return self.bytes_total // TOKEN_BLOCK_BYTES

    @property
    def status(self) -> str:
        return OPEN if self.closed is None else CLOSED


class ChannelManager:
    """Owns channel state; mutated only by the protocol engine's loop."""

    def __init__(
        self,
        ledger: Ledger,
        bank: TokenBank,
        *,
        timelock_window: int = DEFAULT_TIMELOCK_WINDOW,
        inactivity_window: int = DEFAULT_INACTIVITY_WINDOW,
        round_up_final_block: bool = True,
        preimage_seed: int = 0,
    ):
        self.ledger = ledger
        self.bank = bank
        self.signer = ledger.signer_backend
        self.timelock_window = timelock_window
        self.inactivity_window = inactivity_window
        self.round_up_final_block = round_up_final_block
        # Closed channels stay too, so each new channel's id is the count of channels.
        self.channels: dict[str, PaymentChannel] = {}
        self._open: dict[str, PaymentChannel] = {}   # open channels, in opening order
        # Every accepted proof is kept for ``dump_proofs`` only while
        # keep_proofs is set; proofs_accepted counts them either way.
        self.keep_proofs = True
        self.accepted_proofs: list[BalanceProof] = []
        self._rng = random.Random(preimage_seed)
        # The preimage of the next open; like the next id, it moves on only
        # when an open is accepted, so a rejected open shifts no later channel.
        self._next_preimage = self._rng.randbytes(32)

    # -- lifecycle

    def open_channel(self, wallet_id: str, vmno: str, deposit: int, now: int) -> str:
        wallet = self.bank.wallet(wallet_id)
        channel_id = f"ch-{len(self.channels):07d}"
        preimage = self._next_preimage
        roamer = wallet.owner or wallet_id
        opened = ChannelOpen(channel_id, wallet_id, vmno, deposit, codec.digest(preimage),
                             now + self.timelock_window)
        tx_id = self.ledger.append(now, roamer, opened)
        self._next_preimage = self._rng.randbytes(32)
        ch = PaymentChannel(opened, tx_id, roamer, now, preimage)
        self.channels[channel_id] = self._open[channel_id] = ch
        return channel_id

    def channel(self, channel_id: str) -> PaymentChannel:
        ch = self.channels.get(channel_id)
        if ch is None:
            raise UnknownChannel(channel_id)
        return ch

    # -- off-chain payments

    def pay_for_traffic(self, channel_id: str, new_bytes: int, now: int) -> list[BalanceProof]:
        """Roamer side: meter traffic and emit one proof per completed block.

        Service stops at the deposit: excess bytes are recorded as
        unserviced rather than raising.  ``new_bytes`` must be an int >= 0;
        anything else raises ``NonPositiveAmount`` and changes nothing.
        """
        if not isinstance(new_bytes, int) or isinstance(new_bytes, bool) or new_bytes < 0:
            raise NonPositiveAmount(f"traffic bytes {new_bytes!r}")
        ch = self.channel(channel_id)
        if ch.closed is not None:
            raise ChannelNotOpen(channel_id)
        if now >= ch.opened.timelock_expiry:
            raise Expired(channel_id)
        paid = ch.last_seq
        take = min(new_bytes, ch.opened.deposit * TOKEN_BLOCK_BYTES - ch.bytes_total)
        ch.bytes_total += take
        ch.unserviced_bytes += new_bytes - take
        sign, roamer, fmt, preimage = self.signer.sign, ch.roamer, ch.proof_format, ch.preimage
        # Only seq 1 reveals the preimage.
        proofs = [BalanceProof(channel_id, seq, seq, preimage if seq == 1 else None, sign(roamer, fmt % (seq, seq)))
                  for seq in range(paid + 1, ch.last_seq + 1)]
        ch.last_activity = now
        return proofs

    def receive_proof(self, vmno: str, proof: BalanceProof) -> BalanceProof:
        """VMNO side: type-check each field, then validate and store the latest balance proof."""
        channel_id, seq, cumulative = proof.channel_id, proof.seq, proof.cumulative
        ch = self.channels.get(channel_id) if type(channel_id) is str else None
        if ch is None:
            raise UnknownChannel(channel_id)
        opened = ch.opened
        if opened.vmno != vmno or ch.closed is not None:
            raise ChannelNotOpen(channel_id)
        if type(seq) is not int or type(cumulative) is not int:
            raise BadSignature(f"proof seq {seq!r}, cumulative {cumulative!r}: not both ints")
        if type(proof.signature) is not bytes or not self.signer.verify(
                ch.roamer, ch.proof_format % (seq, cumulative), proof.signature):
            raise BadSignature(f"proof seq {seq}")
        latest = ch.latest
        if latest is None:
            last_seq = last_cumulative = 0
        else:
            last_seq, last_cumulative = latest.seq, latest.cumulative
        expected_seq = last_seq + 1
        if seq < expected_seq:
            raise StaleProof(f"seq {seq} <= {last_seq}")
        if seq > expected_seq:
            raise GapSeq(f"seq {seq}, expected {expected_seq}")
        if cumulative > opened.deposit:
            raise Overdraft(f"cumulative {cumulative} > deposit {opened.deposit}")
        if cumulative <= last_cumulative:
            raise StaleProof(f"cumulative {cumulative} does not increase")
        if seq == 1 and (type(proof.preimage) is not bytes or codec.digest(proof.preimage) != opened.hashlock):
            raise BadPreimage(channel_id)
        ch.latest = proof
        if self.keep_proofs:
            self.accepted_proofs.append(proof)
        return proof

    # -- close paths

    def close_channel(self, channel_id: str, now: int, *, closer: Optional[str] = None) -> bytes:
        """Settle on-chain: pay the VMNO its due, refund the rest."""
        ch = self.channel(channel_id)
        deposit = ch.opened.deposit
        latest = ch.latest
        final_seq = paid = 0
        if latest is not None:
            # The first accepted proof revealed the preimage; without it the
            # VMNO cannot claim anything, so sub-100KB-only channels refund
            # in full.
            final_seq, paid = latest.seq, latest.cumulative
            partial = ch.bytes_total > paid * TOKEN_BLOCK_BYTES
            if self.round_up_final_block and partial and paid < deposit:
                paid += 1
        closed = ChannelClose(channel_id, paid, deposit - paid, final_seq)
        tx_id = self.ledger.append(now, closer or ch.roamer, closed)
        del self._open[channel_id]
        ch.closed, ch.close_tx = closed, tx_id
        return tx_id

    def timeout_sweep(self, now: int) -> list[str]:
        """Close idle channels with the latest stored proof; refund expired
        channels whose preimage was never revealed (no proof was accepted)."""
        closed = []
        for ch in list(self._open.values()):
            opened = ch.opened
            expired_unclaimed = now >= opened.timelock_expiry and ch.latest is None
            idle = now - ch.last_activity >= self.inactivity_window
            if expired_unclaimed or idle:
                self.close_channel(opened.channel, now, closer=opened.vmno)
                closed.append(opened.channel)
        return closed

    # -- debug / audit surfaces

    def dump_proofs(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for proof in self.accepted_proofs:
                fh.write(json.dumps(proof.to_record(), separators=(",", ":")) + "\n")

    @property
    def proofs_accepted(self) -> int:
        """Proofs accepted over all channels: ``receive_proof`` takes only the
        next seq, so a channel's latest seq counts its accepted proofs."""
        return sum(ch.latest.seq for ch in self.channels.values() if ch.latest is not None)

    def serviced_bytes_total(self) -> int:
        return sum(ch.bytes_total for ch in self.channels.values())
