"""Roamer lifecycle state machine and the engine that owns all state.

A session walks Home -> Contracted -> (Provisioned, LBO only) ->
ChannelOpen -> (Active) -> Settled; each ``DiceEngine`` step checks the
state it starts from before any side effect, and that is the only statement
of the transitions.  HR mode skips the provisioning step and otherwise
behaves identically, so both modes yield the same payments, settlement and
on-chain footprint.

A session holds only its state: the chain holds its txs, its channel's
latest accepted proof counts its proofs, and its events are built only
while ``DiceEngine.keep_events`` is set.  Session ids count the sessions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import codec
from .channel import ChannelManager
from .errors import (
    NoAgreement,
    NoTokens,
    UnknownMno,
    UnverifiableIssuance,
    WrongMode,
    WrongState,
)
from .ledger import AgreementRegistration, AttachCheck, Ledger
from .tokenbank import TokenBank

LBO, HR = "lbo", "hr"

# Session states, in protocol order.
HOME = "home"
CONTRACTED = "contracted"
PROVISIONED = "provisioned"
CHANNEL_OPEN = "channel_open"
ACTIVE = "active"
SETTLED = "settled"


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
    clock: int = 0
    events: list[dict] = field(default_factory=list)  # empty unless the engine keeps events


def events_to_jsonl(events: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev, separators=(",", ":"), sort_keys=True) + "\n")


class DiceEngine:
    """Single event-loop owner of ledger, bank, channels and sessions.

    All actors (MNOs and roamers) must be known up front: their signing
    keys are anchored in the genesis block, which is what makes a
    persisted ledger verifiable on its own.  The MNOs form the roster: they
    seal blocks, issue tokens and sign agreements.  ``channel_options`` go
    to ``ChannelManager`` unchanged.
    """

    def __init__(self, mnos: list[str], roamers: list[str], *, seed: int = 0, **channel_options):
        keys = {a: codec.derive_key(seed, a) for a in [*mnos, *roamers]}
        self.ledger = Ledger(mnos, keys)
        self.signer = self.ledger.signer_backend
        self.bank = TokenBank(self.ledger)
        self.channels = ChannelManager(self.ledger, self.bank, preimage_seed=codec.derive_seed(seed, "preimage"),
                                       **channel_options)
        # Sessions are never removed, so each new session's id is the count of sessions.
        self.sessions: dict[str, RoamerSession] = {}
        # Session events are built only while set; session clocks move on either way.
        self.keep_events = True
        self._session_by_channel: dict[str, RoamerSession] = {}

    # -- step 0: consortium agreements

    def register_agreement(self, hmno: str, vmno: str, accepts: Iterable[str], charging: dict, now: int) -> bytes:
        """Sign and submit the agreement that ``vmno`` accepts the tokens of the
        issuers in ``accepts``, charged by ``charging``; the bank's rules check
        its parties, its uniqueness and its charging spec."""
        if not self.signer.knows(hmno):
            raise UnknownMno(hmno)  # it cannot even sign the agreement
        agreement = AgreementRegistration(hmno, vmno, tuple(sorted(accepts)), dict(charging))
        return self.ledger.append(now, hmno, agreement)

    # -- session lifecycle

    def new_session(self, roamer: str, wallet: str, hmno: str, vmno: str, mode: str, now: int) -> RoamerSession:
        session_id = f"s-{len(self.sessions):07d}"
        session = RoamerSession(session_id, roamer, wallet, hmno, vmno, mode, clock=now)
        self.sessions[session_id] = session
        return session

    def attach_check(self, session: RoamerSession, now: int) -> bool:
        """Step 2 smart contract: one on-chain transaction records whether
        the VMNO accepts this roamer's home tokens and verified funding."""
        if session.state != HOME:
            raise WrongState(session.state)
        failure: Optional[Exception] = None
        agreement = self.bank.agreements.get((session.hmno, session.vmno))
        if agreement is None or session.hmno not in agreement.accepts:
            failure = NoAgreement(f"{session.hmno}->{session.vmno}")
        else:
            lots = self.bank.lots_of(session.active_wallet, issuer=session.hmno)
            unverified = [l.lot_id for l in lots if self.bank.provenance_fault(l.lot_id, session.hmno)]
            if sum(l.amount for l in lots) <= 0:
                failure = NoTokens(session.active_wallet)
            elif unverified:
                failure = UnverifiableIssuance(unverified[0])
        accepted = failure is None
        tx_id = self.ledger.append(
            now, session.vmno, AttachCheck(session.active_wallet, session.vmno, session.hmno, accepted))
        self._log(session, now, "attach_check", accepted=accepted, tx=tx_id.hex())
        if failure is not None:
            raise failure
        session.state = CONTRACTED
        return True

    def provision_profile(self, session: RoamerSession) -> RoamerSession:
        """Step 3, LBO only: pure state transition, no radio semantics."""
        if session.mode != LBO:
            raise WrongMode(session.mode)
        if session.state != CONTRACTED:
            raise WrongState(session.state)
        session.state = PROVISIONED
        self._log(session, session.clock, "provisioned")
        return session

    def open_session_channel(self, session: RoamerSession, deposit: int, now: int) -> str:
        expected = PROVISIONED if session.mode == LBO else CONTRACTED
        if session.state != expected:
            raise WrongState(f"{session.state}, expected {expected}")
        channel_id = self.channels.open_channel(session.active_wallet, session.vmno, deposit, now)
        session.channel = channel_id
        self._session_by_channel[channel_id] = session
        session.state = CHANNEL_OPEN
        self._log(session, now, "channel_open", channel=channel_id, deposit=deposit,
                  tx=self.channels.channel(channel_id).open_tx.hex())
        return channel_id

    def session_traffic(self, session: RoamerSession, nbytes: int, now: int) -> int:
        """Deliver traffic: emit balance proofs and hand them to the VMNO.

        Returns the number of proofs accepted for this batch.
        """
        if session.state not in (CHANNEL_OPEN, ACTIVE):
            raise WrongState(session.state)
        proofs = self.channels.pay_for_traffic(session.channel, nbytes, now)
        receive, vmno = self.channels.receive_proof, session.vmno
        for proof in proofs:
            receive(vmno, proof)
        session.state = ACTIVE
        unserviced = self.channels.channel(session.channel).unserviced_bytes
        self._log(session, now, "traffic", bytes=nbytes, proofs=len(proofs))
        if unserviced:
            self._log(session, now, "deposit_exhausted", unserviced_bytes=unserviced)
        return len(proofs)

    def detach(self, session: RoamerSession, now: int) -> RoamerSession:
        """Steps 8-10: close the channel and settle the session."""
        if session.state not in (CHANNEL_OPEN, ACTIVE):
            raise WrongState(session.state)
        self.channels.close_channel(session.channel, now, closer=session.roamer)
        self._settle(session, now)
        if session.mode == LBO:
            self._log(session, now, "reprovision_home")
        return session

    def timeout_sweep(self, now: int) -> list[str]:
        """Close idle or expired channels and settle their sessions."""
        closed = self.channels.timeout_sweep(now)
        for channel_id in closed:
            session = self._session_by_channel.get(channel_id)
            if session is not None:  # it was open, so its session is CHANNEL_OPEN or ACTIVE
                self._settle(session, now, by="timeout")
        return closed

    def _settle(self, session: RoamerSession, now: int, **close_fields) -> None:
        """Settle a session whose channel has just closed on-chain."""
        ch = self.channels.channel(session.channel)
        self._log(session, now, "channel_close", paid=ch.closed.paid, refunded=ch.closed.refunded,
                  tx=ch.close_tx.hex(), **close_fields)
        session.state = SETTLED

    def _log(self, session: RoamerSession, now: int, kind: str, **payload) -> None:
        session.clock = now
        if self.keep_events:
            session.events.append(
                {"time": now, "session_id": session.session_id, "event": kind, "payload": payload}
            )

    # -- convenience passthroughs

    def seal_if_pending(self, now: int):
        if self.ledger.pending:
            return self.ledger.seal_block(now)
        return None
