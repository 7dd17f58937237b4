"""Financial clearing: provenance-checked token redemption against issuers.

A VMNO may only convert tokens to money if every claimed lot was issued by
the counterparty to one of its own customers and reached the VMNO through a
payment-channel close (``TokenBank.provenance_fault``).  Anything else
(direct transfers, relays, forged lineages, self-issued tokens) is
rejected, which is the anti-laundering core of the scheme.  A claim is
priced by ``TokenBank.agreed_price``, the pair's registered agreement.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

from .ledger import Ledger, Redeem
from .tokenbank import TokenBank, treasury_wallet_id

# --- redemption claims and provenance ----------------------------------------


@dataclass
class RedemptionClaim:
    vmno: str
    hmno: str
    lot_ids: list[str]
    fiat_due: float


def make_claim(bank: TokenBank, vmno: str, hmno: str) -> Optional[RedemptionClaim]:
    """Claim every hmno-issued lot currently held by the VMNO treasury, at
    the pair's agreed price; None if it holds none or no agreement accepts them."""
    treasury = treasury_wallet_id(vmno)
    if treasury not in bank.wallets:
        return None
    lots = bank.lots_of(treasury, issuer=hmno)
    fiat = bank.agreed_price(hmno, vmno, sum(l.amount for l in lots)) if lots else None
    if fiat is None:
        return None
    return RedemptionClaim(vmno, hmno, sorted(l.lot_id for l in lots), fiat)


@dataclass
class ProvenanceVerdict:
    accepted: bool
    offending_lot: Optional[str] = None
    reason: Optional[str] = None


def validate_provenance(bank: TokenBank, ledger: Ledger, claim: RedemptionClaim) -> ProvenanceVerdict:
    """ACCEPT iff every lot was issued by claim.hmno to an hmno customer and
    reached the VMNO wallet through a close of one of the VMNO's channels.

    ``ledger`` is not read: the bank records every payload the check needs.
    """
    for lot_id in claim.lot_ids:
        reason = bank.provenance_fault(lot_id, claim.hmno, claim.vmno)
        if reason is not None:
            return ProvenanceVerdict(False, lot_id, reason)
    return ProvenanceVerdict(True)


def redeem(engine, claim: RedemptionClaim, now: int) -> bytes:
    """Record the redemption on-chain, which burns the claimed lots after
    the bank's Redeem rules pass (provenance, burn, the agreed price).  The
    ``Redeem`` tx carries the fiat the home MNO owes the visited one; nothing
    else records it, and ``write_settlement_csv`` reads it from there.

    ``engine`` is the protocol engine; it owns the bank and the ledger.
    """
    return engine.ledger.append(
        now, claim.vmno, Redeem(claim.vmno, claim.hmno, tuple(claim.lot_ids), claim.fiat_due))


# --- reporting ---------------------------------------------------------------

SETTLEMENT_COLUMNS = ["period_start", "period_end", "vmno", "hmno", "tokens", "model", "fiat"]


def write_settlement_csv(path, bank: TokenBank) -> None:
    """One row per ``Redeem`` tx of ``bank.ledger``'s sealed chain, in chain
    order: the period from genesis to the redeem, its tokens, the pair's
    agreed model and its fiat.  A run and a replay of its chain write it alike."""
    period_start = bank.ledger.chain[0].sealed_at
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SETTLEMENT_COLUMNS)
        for tx in bank.ledger.all_txs():
            if isinstance(p := tx.payload, Redeem):
                writer.writerow([period_start, tx.timestamp, p.vmno, p.hmno, sum(bank.lots[l].amount for l in p.lots),
                                 bank.agreements[(p.hmno, p.vmno)].charging["model"], f"{p.fiat:.6f}"])
