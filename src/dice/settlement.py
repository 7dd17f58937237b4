"""Financial clearing: provenance-checked token redemption against issuers.

A VMNO may only convert tokens to money if every claimed lot was issued by
the counterparty to one of its own customers and reached the VMNO through a
payment-channel close (``TokenBank.provenance_fault``).  Anything else
(direct transfers, relays, forged lineages, self-issued tokens) is
rejected, which is the anti-laundering core of the scheme.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

from .errors import InvalidConfig
from .ledger import Ledger, Redeem, record
from .tokenbank import TokenBank, treasury_wallet_id
from .workload import AMOUNT, COUNT, FRACTION, _check_schema, knob

# --- charging models --------------------------------------------------------


@record
class PerUnit:
    rate: float = knob(MISSING, AMOUNT)  # currency per token
    name = "per_unit"


@record
class Fixed:
    flat: float = knob(MISSING, AMOUNT)        # currency per settlement period
    discount: float = knob(0.0, FRACTION)     # post-discount adjustment
    name = "fixed"


@record
class Parity:
    """1 roaming coin buys 1MB and costs 1 euro (tokens are 100KB each)."""
    tokens_per_mb: int = knob(10, COUNT)
    euro_per_mb: float = knob(1.0, AMOUNT)
    name = "parity"


ChargingModel = Union[PerUnit, Fixed, Parity]


def model_from_dict(spec: dict) -> ChargingModel:
    """Read a charging spec strictly: ``model`` names a model, whose
    ``config_schema`` the other keys fit; a number key's int is read as a
    float.  Raises InvalidConfig, its message starting with the fault's path."""
    kind = spec.get("model") if isinstance(spec, dict) else None
    model = next((m for m in (PerUnit, Fixed, Parity) if m.name == kind), None)
    if model is None:
        raise InvalidConfig(f"$.model: {kind!r} is not a charging model")
    args = {k: v for k, v in spec.items() if k != "model"}
    _check_schema(model, args)
    floats = {f.name for f in fields(model) if f.type == "float"}
    return model(**{k: float(v) if k in floats else v for k, v in args.items()})


def price(model: ChargingModel, tokens: int) -> float:
    """Currency due for a token count under the given model; pure."""
    if tokens < 0:
        raise ValueError("tokens must be non-negative")
    if isinstance(model, PerUnit):
        return tokens * model.rate
    if isinstance(model, Fixed):
        return model.flat * (1.0 - model.discount)
    return tokens / model.tokens_per_mb * model.euro_per_mb


# --- redemption claims and provenance ----------------------------------------


@dataclass
class RedemptionClaim:
    vmno: str
    hmno: str
    lot_ids: list[str]
    tokens: int
    fiat_due: float


def make_claim(bank: TokenBank, model: ChargingModel, vmno: str, hmno: str) -> Optional[RedemptionClaim]:
    """Claim every hmno-issued lot currently held by the VMNO treasury."""
    treasury = treasury_wallet_id(vmno)
    if treasury not in bank.wallets:
        return None
    lots = bank.lots_of(treasury, issuer=hmno)
    if not lots:
        return None
    lot_ids = sorted(l.lot_id for l in lots)
    tokens = sum(l.amount for l in lots)
    return RedemptionClaim(vmno, hmno, lot_ids, tokens, price(model, tokens))


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
