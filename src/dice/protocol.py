"""Roamer lifecycle state machine and the engine that owns all state.

A session walks Home -> Checked -> Contracted -> (Provisioned, LBO only)
-> ChannelOpen -> Active -> Closing -> Settled.  HR mode skips the
provisioning step and otherwise behaves identically, so both modes yield
the same payments, settlement and on-chain footprint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import codec
from .channel import DEFAULT_INACTIVITY_WINDOW, DEFAULT_TIMELOCK_WINDOW, ChannelManager
from .errors import (
    DuplicateAgreement,
    NoAgreement,
    NoTokens,
    UnknownMno,
    UnverifiableIssuance,
    WrongMode,
    WrongState,
)
from .ledger import AgreementRegistration, AttachCheck, Ledger, make_transaction
from .tokenbank import Mno, TokenBank

LBO, HR = "lbo", "hr"

# Session states, in protocol order.
HOME = "home"
CHECKED = "checked"
CONTRACTED = "contracted"
PROVISIONED = "provisioned"
CHANNEL_OPEN = "channel_open"
ACTIVE = "active"
CLOSING = "closing"
SETTLED = "settled"

_NEXT: dict[str, tuple[str, ...]] = {
    HOME: (CHECKED,),
    CHECKED: (CONTRACTED,),
    CONTRACTED: (PROVISIONED, CHANNEL_OPEN),  # HR jumps straight to the channel
    PROVISIONED: (CHANNEL_OPEN,),
    CHANNEL_OPEN: (ACTIVE, CLOSING),
    ACTIVE: (CLOSING,),
    CLOSING: (SETTLED,),
    SETTLED: (),
}


@dataclass(frozen=True)
class AgreementTerms:
    accepts_tokens_of: frozenset[str]
    charging: dict

    def to_fields(self) -> tuple[tuple[str, ...], dict]:
        return tuple(sorted(self.accepts_tokens_of)), dict(self.charging)


@dataclass
class RoamingAgreement:
    hmno: str
    vmno: str
    terms: AgreementTerms


@dataclass
class RoamerSession:
    session_id: str
    roamer: str
    active_wallet: str
    hmno: str
    vmno: str
    mode: str
    state: str = HOME
    channel: Optional[str] = None
    opened_at: Optional[int] = None
    closed_at: Optional[int] = None
    clock: int = 0
    onchain_txs: list[bytes] = field(default_factory=list)
    proofs_accepted: int = 0
    events: list[dict] = field(default_factory=list)

    def _log(self, now: int, kind: str, **payload) -> None:
        self.clock = now
        self.events.append(
            {"time": now, "session_id": self.session_id, "event": kind, "payload": payload}
        )

    def _move(self, new_state: str) -> None:
        if new_state not in _NEXT[self.state]:
            raise WrongState(f"{self.state} -> {new_state}")
        self.state = new_state


@dataclass
class SessionEvents:
    """Event log returned by run_session."""
    session_id: str
    events: list[dict]
    proofs_accepted: int
    onchain_txs: list[bytes]
    unserviced_bytes: int


def events_to_jsonl(events: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev, separators=(",", ":"), sort_keys=True) + "\n")


class DiceEngine:
    """Single event-loop owner of ledger, bank, channels and sessions.

    All actors (MNOs and roamers) must be known up front: their signing
    keys are anchored in the genesis block, which is what makes a
    persisted ledger verifiable on its own.
    """

    def __init__(
        self,
        mnos: list[Mno],
        roamers: list[str],
        *,
        seed: int = 0,
        genesis_time: int = 0,
        timelock_window: int = DEFAULT_TIMELOCK_WINDOW,
        inactivity_window: int = DEFAULT_INACTIVITY_WINDOW,
        round_up_final_block: bool = True,
    ):
        roster = [m.id for m in mnos]
        actors = roster + list(roamers)
        keys = {a: codec.derive_key(seed, a) for a in actors}
        self.ledger = Ledger(roster, keys, genesis_time)
        self.signer = self.ledger.signer_backend
        self.mnos = {m.id: m for m in mnos}
        self.bank = TokenBank(self.ledger, self.signer, self.mnos)
        self.channels = ChannelManager(
            self.ledger, self.bank, self.signer,
            timelock_window=timelock_window,
            inactivity_window=inactivity_window,
            round_up_final_block=round_up_final_block,
            preimage_seed=codec.derive_seed(seed, "preimage"),
        )
        self.agreements: dict[tuple[str, str], RoamingAgreement] = {}
        self.sessions: dict[str, RoamerSession] = {}
        self.fiat: dict[str, float] = {}  # in-simulation double-entry accounts
        self._session_by_channel: dict[str, str] = {}
        self._session_seq = 0

    # -- step 0: consortium agreements

    def register_agreement(self, hmno: str, vmno: str, terms: AgreementTerms, now: int) -> bytes:
        if hmno not in self.mnos or vmno not in self.mnos:
            raise UnknownMno(f"{hmno}/{vmno}")
        if (hmno, vmno) in self.agreements:
            raise DuplicateAgreement(f"{hmno}->{vmno}")
        accepts, charging = terms.to_fields()
        tx = make_transaction(now, hmno, AgreementRegistration(hmno, vmno, accepts, charging), self.signer)
        tx_id = self.ledger.submit(tx)
        self.agreements[(hmno, vmno)] = RoamingAgreement(hmno, vmno, terms)
        return tx_id

    # -- session lifecycle

    def new_session(self, roamer: str, wallet: str, hmno: str, vmno: str, mode: str, now: int) -> RoamerSession:
        session_id = f"s-{self._session_seq:07d}"
        self._session_seq += 1
        session = RoamerSession(session_id, roamer, wallet, hmno, vmno, mode, clock=now)
        self.sessions[session_id] = session
        return session

    def attach_check(self, session: RoamerSession, now: int) -> bool:
        """Step 2 smart contract: one on-chain transaction records whether
        the VMNO accepts this roamer's home tokens and verified funding."""
        if session.state != HOME:
            raise WrongState(session.state)
        failure: Optional[Exception] = None
        agreement = self.agreements.get((session.hmno, session.vmno))
        if agreement is None or session.hmno not in agreement.terms.accepts_tokens_of:
            failure = NoAgreement(f"{session.hmno}->{session.vmno}")
        else:
            lots = self.bank.lots_of(session.active_wallet, issuer=session.hmno)
            unverified = [l.lot_id for l in lots if self.bank.provenance_fault(l.lot_id, session.hmno)]
            if sum(l.amount for l in lots) <= 0:
                failure = NoTokens(session.active_wallet)
            elif unverified:
                failure = UnverifiableIssuance(unverified[0])
        accepted = failure is None
        tx = make_transaction(
            now, session.vmno,
            AttachCheck(session.active_wallet, session.vmno, session.hmno, accepted),
            self.signer,
        )
        tx_id = self.ledger.submit(tx)
        session.onchain_txs.append(tx_id)
        session._log(now, "attach_check", accepted=accepted, tx=tx_id.hex())
        if failure is not None:
            raise failure
        session._move(CHECKED)
        session._move(CONTRACTED)
        return True

    def provision_profile(self, session: RoamerSession) -> RoamerSession:
        """Step 3, LBO only: pure state transition, no radio semantics."""
        if session.mode != LBO:
            raise WrongMode(session.mode)
        if session.state != CONTRACTED:
            raise WrongState(session.state)
        session._move(PROVISIONED)
        session._log(session.clock, "provisioned")
        return session

    def open_session_channel(self, session: RoamerSession, deposit: int, now: int) -> str:
        expected = PROVISIONED if session.mode == LBO else CONTRACTED
        if session.state != expected:
            raise WrongState(f"{session.state}, expected {expected}")
        channel_id = self.channels.open_channel(session.active_wallet, session.vmno, deposit, now)
        session.channel = channel_id
        session.opened_at = now
        ch = self.channels.channel(channel_id)
        session.onchain_txs.append(ch.open_tx)
        self._session_by_channel[channel_id] = session.session_id
        session._move(CHANNEL_OPEN)
        session._log(now, "channel_open", channel=channel_id, deposit=deposit, tx=ch.open_tx.hex())
        return channel_id

    def session_traffic(self, session: RoamerSession, nbytes: int, now: int) -> int:
        """Deliver traffic: emit balance proofs and hand them to the VMNO.

        Returns the number of proofs accepted for this batch.
        """
        if session.state not in (CHANNEL_OPEN, ACTIVE):
            raise WrongState(session.state)
        proofs = self.channels.pay_for_traffic(session.channel, nbytes, now)
        for proof in proofs:
            self.channels.receive_proof(session.vmno, proof)
        session.proofs_accepted += len(proofs)
        if session.state == CHANNEL_OPEN:
            session._move(ACTIVE)
        meter = self.channels.channel(session.channel).meter
        session._log(now, "traffic", bytes=nbytes, proofs=len(proofs))
        if meter.exhausted:
            session._log(now, "deposit_exhausted", unserviced_bytes=meter.unserviced_bytes)
        return len(proofs)

    def run_session(self, session: RoamerSession, traffic_trace: list[tuple[int, int]],
                    deposit: int) -> SessionEvents:
        """Steps 5-7: open the channel and replay a traffic trace in order."""
        self.open_session_channel(session, deposit, session.clock)
        for when, nbytes in sorted(traffic_trace):
            self.session_traffic(session, nbytes, when)
        meter = self.channels.channel(session.channel).meter
        return SessionEvents(
            session_id=session.session_id,
            events=list(session.events),
            proofs_accepted=session.proofs_accepted,
            onchain_txs=list(session.onchain_txs),
            unserviced_bytes=meter.unserviced_bytes,
        )

    def detach(self, session: RoamerSession, now: int) -> RoamerSession:
        """Steps 8-10: close the channel and settle the session."""
        if session.state not in (CHANNEL_OPEN, ACTIVE):
            raise WrongState(session.state)
        self.channels.close_channel(session.channel, now, closer=session.roamer)
        self._settle(session, now)
        if session.mode == LBO:
            session._log(now, "reprovision_home")
        return session

    def timeout_sweep(self, now: int) -> list[str]:
        """Close idle or expired channels and settle their sessions."""
        closed = self.channels.timeout_sweep(now)
        for channel_id in closed:
            session_id = self._session_by_channel.get(channel_id)
            if session_id is None:
                continue
            session = self.sessions[session_id]
            if session.state in (CHANNEL_OPEN, ACTIVE):
                self._settle(session, now, by="timeout")
        return closed

    def _settle(self, session: RoamerSession, now: int, **close_fields) -> None:
        """Settle a session whose channel has just closed on-chain."""
        ch = self.channels.channel(session.channel)
        session._move(CLOSING)
        session.onchain_txs.append(ch.close_tx)
        session._log(now, "channel_close", paid=ch.paid_at_close, refunded=ch.refunded_at_close,
                     tx=ch.close_tx.hex(), **close_fields)
        session._move(SETTLED)
        session.closed_at = now

    # -- convenience passthroughs

    def seal_if_pending(self, now: int):
        if self.ledger.pending:
            return self.ledger.seal_block(now)
        return None
