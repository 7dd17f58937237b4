"""Financial clearing: provenance-checked token redemption against issuers.

A VMNO may only convert tokens to money if every claimed lot was issued by
the counterparty to one of its own customers and reached the VMNO through a
payment-channel close (``TokenBank.provenance_fault``).  Anything else
(direct transfers, relays, forged lineages, self-issued tokens) is
rejected, which is the anti-laundering core of the scheme.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional, Union

from .ledger import Ledger, Redeem, make_transaction
from .tokenbank import TokenBank, treasury_wallet_id

# --- charging models --------------------------------------------------------


@dataclass(frozen=True)
class PerUnit:
    rate: float  # currency per token
    name = "per_unit"


@dataclass(frozen=True)
class Fixed:
    flat: float              # currency per settlement period
    discount: float = 0.0    # post-discount adjustment, in [0, 1]
    name = "fixed"


@dataclass(frozen=True)
class Parity:
    """1 roaming coin buys 1MB and costs 1 euro (tokens are 100KB each)."""
    tokens_per_mb: int = 10
    euro_per_mb: float = 1.0
    name = "parity"


ChargingModel = Union[PerUnit, Fixed, Parity]


def model_to_dict(model: ChargingModel) -> dict:
    if isinstance(model, PerUnit):
        return {"model": "per_unit", "rate": model.rate}
    if isinstance(model, Fixed):
        return {"model": "fixed", "flat": model.flat, "discount": model.discount}
    return {"model": "parity", "tokens_per_mb": model.tokens_per_mb, "euro_per_mb": model.euro_per_mb}


# The values of each charging-spec key that a price can be computed from.
_RANGE = {"rate": (0.0, math.inf), "flat": (0.0, math.inf), "discount": (0.0, 1.0),
          "tokens_per_mb": (1, math.inf), "euro_per_mb": (0.0, math.inf)}


def model_from_dict(spec: dict) -> ChargingModel:
    """Read a charging spec strictly: a known model, only the keys it
    declares, and each value finite and in range: an int for an int key
    (``tokens_per_mb``), an int or float for the others, never a bool."""
    spec = dict(spec)
    kind = spec.pop("model")
    model = next((m for m in (PerUnit, Fixed, Parity) if m.name == kind), None)
    if model is None:
        raise ValueError(f"unknown charging model {kind!r}")
    unknown = set(spec) - {f.name for f in fields(model)}
    if unknown:
        raise ValueError(f"{kind} charging spec has unknown keys {sorted(unknown)}")
    for key, value in spec.items():
        low, high = _RANGE[key]
        kinds = (int,) if type(low) is int else (int, float)
        if type(value) not in kinds:
            raise ValueError(f"{key} must be {' or '.join(k.__name__ for k in kinds)}, not {value!r}")
        # Checked before conversion: an int too large for a float is not finite.
        if not (abs(value) <= sys.float_info.max and low <= value <= high):
            raise ValueError(f"{key} must be finite and in [{low}, {high}], not {value!r}")
        spec[key] = type(low)(value)
    return model(**spec)  # TypeError if a key it needs is missing


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
    the bank's burn and provenance rules pass.  The ``Redeem`` tx carries the
    fiat the home MNO owes the visited one; nothing else records it.

    ``engine`` is the protocol engine; it owns the bank and the ledger.
    """
    tx = make_transaction(
        now, claim.vmno,
        Redeem(claim.vmno, claim.hmno, tuple(claim.lot_ids), claim.fiat_due),
        engine.signer,
    )
    return engine.ledger.submit(tx)


# --- reporting ---------------------------------------------------------------

SETTLEMENT_COLUMNS = ["period_start", "period_end", "vmno", "hmno", "tokens", "model", "fiat"]


def write_settlement_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SETTLEMENT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
