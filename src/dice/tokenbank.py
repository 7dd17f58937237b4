"""Issuance, custody and provenance tracking of per-MNO tokens.

``TokenBank.apply`` states every token rule of the on-chain transactions
once, and the rules of agreements and attach checks (signer, roster, one
agreement per pair, a charging spec settlement can price): the ledger the
bank is attached to runs each submitted transaction through it.
``verify_blocks`` is the one replay of a persisted chain, through a fresh
ledger with a new bank attached: a chain verifies only if the live engine
could have produced it, and the replay holds the live state.  The
operators (the only actors that may issue or sign agreements and attach
checks) and every signing key come from the ledger's genesis roster and
key registry, so ``TokenBank(ledger)`` needs nothing else.  Every lot
carries its lineage from the issuance event, whose tx ids provenance checks
read in the ledger's tx index; a wallet keeps its lots by issuer.  Lot ids
count the lots.  One token pays for one 100KB traffic block by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

from .errors import (
    AlreadyBurned,
    AlreadyClosed,
    DuplicateAgreement,
    ForeignWallet,
    InsufficientBalance,
    InvalidConfig,
    NonPositiveAmount,
    NotIssuer,
    PayloadRejected,
    ProvenanceRejected,
    ReplayRejected,
    UnknownChannel,
    UnknownLot,
    UnknownMno,
    UnknownWallet,
    ZeroDeposit,
)
from .ledger import (AgreementRegistration, AttachCheck, Block, ChannelClose, ChannelOpen, Issue, Ledger,
                     Redeem, Transaction, ValidityReport)
from .workload import AMOUNT, _fault

TOKEN_BLOCK_BYTES = 100_000  # billing granularity: one token per started 100KB


def tokens_for_bytes(nbytes: int) -> int:
    """Tokens needed to cover nbytes at the 100KB granularity, rounding up."""
    return -(-nbytes // TOKEN_BLOCK_BYTES)


class LineageEntry(NamedTuple):
    holder: str
    tx_id: bytes


@dataclass
class Wallet:
    owner: Optional[str]
    home_mno: str
    # issuer -> {lot_id: lot}, each in the order the lots arrived.
    lots: dict[str, dict[str, TokenLot]] = field(default_factory=dict)


@dataclass
class TokenLot:
    lot_id: str
    issuer: str
    amount: int
    lineage: list[LineageEntry]
    burned: bool = False

    @property
    def holder(self) -> str:
        return self.lineage[-1].holder


def treasury_wallet_id(mno: str) -> str:
    return f"mno:{mno}"


def _is_count(value) -> bool:
    """A token count is a non-negative int (bool excluded)."""
    return type(value) is int and value >= 0


class TokenBank:
    """Single-writer custody of wallets and lots, mirrored on-chain.

    Wallet owners are deliberately kept off-chain (privacy): the only
    linkage the ledger records is the issuer identity.
    """

    def __init__(self, ledger: Ledger):
        # ``ledger`` checks every submit against ``apply``.
        self.ledger = ledger
        self.operators = frozenset(ledger.roster)
        self.wallets: dict[str, Wallet] = {}
        # Burned lots stay too, so each new lot's id is the count of lots.
        self.lots: dict[str, TokenLot] = {}
        self.issued_by: dict[str, int] = {}
        self.burned_by: dict[str, int] = {}
        # Channel escrow: wallet -> channel -> locked token count (home issuer).
        self.locks: dict[str, dict[str, int]] = {}
        # Each channel's open, which provenance reads with the ledger's tx index.
        self.channel_opens: dict[str, ChannelOpen] = {}
        # Each registered agreement, by (hmno, vmno).
        self.agreements: dict[tuple[str, str], AgreementRegistration] = {}
        self._wallet_seq = 0
        ledger.attach_bank(self)

    # -- wallet management

    def create_wallet(self, owner: Optional[str], home_mno: str, wallet_id: Optional[str] = None) -> str:
        """The wallet ``wallet_id``, created for ``owner`` if new; with no id,
        a new wallet under the next generated id that no wallet holds yet."""
        while wallet_id is None:
            generated = f"w-{self._wallet_seq:07d}"
            self._wallet_seq += 1
            if generated not in self.wallets:  # an Issue may have named it first
                wallet_id = generated
        if wallet_id not in self.wallets:
            self.wallets[wallet_id] = Wallet(owner, home_mno)
        return wallet_id

    def wallet(self, wallet_id: str) -> Wallet:
        w = self.wallets.get(wallet_id)
        if w is None:
            raise UnknownWallet(wallet_id)
        return w

    def treasury(self, mno: str) -> str:
        """MNO-owned wallet receiving channel settlements; created lazily."""
        return self.create_wallet(mno, mno, treasury_wallet_id(mno))

    def _next_lot_id(self) -> str:
        return f"lot-{len(self.lots):08d}"

    # -- operations

    def issue(self, hmno: str, wallet_id: str, amount: int, now: int) -> bytes:
        if not self.ledger.signer_backend.knows(hmno):
            raise NotIssuer(hmno)  # it cannot even sign the Issue
        return self.ledger.append(now, hmno, Issue(hmno, wallet_id, amount))

    def create_identities(self, hmno: str, roamer: str, n: int, amounts: list[int], now: int) -> list[str]:
        """Fund n unlinkable wallets for one roamer (privacy via identities)."""
        if n < 1 or len(amounts) != n:
            raise NonPositiveAmount(f"need n>=1 wallets and {n} amounts")
        wallet_ids = [self.create_wallet(roamer, hmno) for _ in range(n)]
        for wid, amount in zip(wallet_ids, amounts):
            self.issue(hmno, wid, amount, now)
        return wallet_ids

    def _select_lots(self, wallet: Wallet, issuer: str) -> list[TokenLot]:
        # Largest first, lot_id breaks ties, so replay picks identically.
        return sorted(wallet.lots.get(issuer, {}).values(), key=lambda l: (-l.amount, l.lot_id))

    def transfer(self, frm: str, to: str, issuer: str, amount: int, cause_tx: bytes) -> list[str]:
        src = self.wallet(frm)
        dst = self.wallet(to)
        if amount <= 0:
            raise NonPositiveAmount(str(amount))
        spendable = self.spendable(frm, issuer)
        if spendable < amount:
            raise InsufficientBalance(f"{frm} has {spendable} spendable < {amount} of {issuer}")
        moved: list[str] = []
        remaining = amount
        src_lots = src.lots[issuer]
        dst_lots = dst.lots.setdefault(issuer, {})
        for lot in self._select_lots(src, issuer):
            if remaining == 0:
                break
            if lot.amount <= remaining:
                lot.lineage.append(LineageEntry(to, cause_tx))
                # Re-inserted last, also when a wallet pays itself.
                del src_lots[lot.lot_id]
                dst_lots[lot.lot_id] = lot
                moved.append(lot.lot_id)
                remaining -= lot.amount
            else:
                # Split: child carries the parent lineage plus the move event.
                child = TokenLot(
                    self._next_lot_id(), issuer, remaining,
                    list(lot.lineage) + [LineageEntry(to, cause_tx)],
                )
                lot.amount -= remaining
                self.lots[child.lot_id] = dst_lots[child.lot_id] = child
                moved.append(child.lot_id)
                remaining = 0
        return moved

    def balance(self, wallet_id: str, issuer: str) -> int:
        """Gross holdings of one issuer's tokens, escrowed tokens included."""
        return sum(lot.amount for lot in self.wallet(wallet_id).lots.get(issuer, {}).values())

    def locked_amount(self, wallet_id: str) -> int:
        return sum(self.locks.get(wallet_id, {}).values())

    def spendable(self, wallet_id: str, issuer: str) -> int:
        """Balance minus channel escrow (locks are in the home issuer)."""
        gross = self.balance(wallet_id, issuer)
        if issuer == self.wallet(wallet_id).home_mno:
            return gross - self.locked_amount(wallet_id)
        return gross

    def lock(self, wallet_id: str, channel: str, amount: int) -> None:
        """Escrow home-issuer tokens for a payment channel."""
        spendable = self.spendable(wallet_id, self.wallet(wallet_id).home_mno)
        if spendable < amount:
            raise InsufficientBalance(f"{wallet_id} has {spendable} spendable < {amount}")
        self.locks.setdefault(wallet_id, {})[channel] = amount

    def release_lock(self, wallet_id: str, channel: str) -> int:
        return self.locks.get(wallet_id, {}).pop(channel, 0)

    def lot(self, lot_id: str) -> TokenLot:
        lot = self.lots.get(lot_id)
        if lot is None:
            raise UnknownLot(lot_id)
        return lot

    def lots_of(self, wallet_id: str, issuer: str) -> list[TokenLot]:
        """A wallet's lots of one issuer, in arrival order."""
        return list(self.wallet(wallet_id).lots.get(issuer, {}).values())

    def burn(self, lot_ids: list[str]) -> None:
        """Remove redeemed lots from circulation; supply stays accounted."""
        for lid in lot_ids:
            lot = self.lot(lid)
            del self.wallets[lot.holder].lots[lot.issuer][lid]
            lot.burned = True
            self.burned_by[lot.issuer] = self.burned_by.get(lot.issuer, 0) + lot.amount

    # -- the token rules

    def apply(self, tx: Transaction) -> None:
        """Check an authenticated transaction against the rules of its payload
        kind, then apply it; raise, leaving the bank unchanged, if a rule fails."""
        p = tx.payload
        if isinstance(p, AttachCheck):
            if tx.signer != p.vmno:
                raise PayloadRejected(f"attach check for {p.vmno} signed by {tx.signer}")
            if p.hmno not in self.operators or p.vmno not in self.operators:
                raise UnknownMno(f"{p.hmno}/{p.vmno}")
        elif isinstance(p, Issue):
            if tx.signer != p.issuer or p.issuer not in self.operators:
                raise NotIssuer(f"{p.issuer}, signed by {tx.signer}")
            w = self.wallets.get(p.wallet)
            if w is not None and w.home_mno != p.issuer:
                raise ForeignWallet(f"{p.wallet} belongs to {w.home_mno}, not {p.issuer}")
            if not _is_count(p.amount) or p.amount == 0:
                raise NonPositiveAmount(repr(p.amount))
            self.create_wallet(None, p.issuer, p.wallet)
            lot = TokenLot(self._next_lot_id(), p.issuer, p.amount, [LineageEntry(p.wallet, tx.tx_id)])
            self.lots[lot.lot_id] = lot
            self.wallets[p.wallet].lots.setdefault(p.issuer, {})[lot.lot_id] = lot
            self.issued_by[p.issuer] = self.issued_by.get(p.issuer, 0) + p.amount
        elif isinstance(p, ChannelOpen):
            if not _is_count(p.deposit) or p.deposit == 0:
                raise ZeroDeposit(repr(p.deposit))
            if p.channel in self.channel_opens:
                raise PayloadRejected(f"channel {p.channel} was already opened")
            self.lock(p.wallet, p.channel, p.deposit)  # needs spendable >= deposit
            self.channel_opens[p.channel] = p
        elif isinstance(p, ChannelClose):
            opened = self.channel_opens.get(p.channel)
            if opened is None:
                raise UnknownChannel(p.channel)
            # A channel is open while its deposit is locked.
            if p.channel not in self.locks.get(opened.wallet, {}):
                raise AlreadyClosed(p.channel)
            if not (_is_count(p.paid) and _is_count(p.refunded) and _is_count(p.final_seq)) \
                    or p.paid + p.refunded != opened.deposit:
                raise PayloadRejected(f"close of {p.channel}: paid {p.paid!r} + refunded "
                                      f"{p.refunded!r} must split the deposit {opened.deposit}")
            if p.paid and p.final_seq == 0:
                raise PayloadRejected(f"close of {p.channel} pays {p.paid} without a balance proof")
            self.release_lock(opened.wallet, p.channel)
            if p.paid:
                issuer = self.wallets[opened.wallet].home_mno
                self.transfer(opened.wallet, self.treasury(opened.vmno), issuer, p.paid, tx.tx_id)
        elif isinstance(p, Redeem):
            if tx.signer != p.vmno:
                raise PayloadRejected(f"redeem for {p.vmno} signed by {tx.signer}")
            if _fault(AMOUNT, p.fiat, "fiat"):
                raise PayloadRejected(f"redeem for {p.vmno}: fiat {p.fiat!r} is not a finite "
                                      "non-negative number")
            if not p.lots:
                raise PayloadRejected(f"redeem for {p.vmno} names no lots")
            if len(set(p.lots)) != len(p.lots):
                raise PayloadRejected("redeem names a lot twice")
            for lot_id in p.lots:
                if self.lot(lot_id).burned:
                    raise AlreadyBurned(lot_id)
                reason = self.provenance_fault(lot_id, p.hmno, p.vmno)
                if reason is not None:
                    raise ProvenanceRejected(f"{lot_id}: {reason}")
            if sum(self.lot(l).amount for l in p.lots) > self.spendable(treasury_wallet_id(p.vmno), p.hmno):
                raise InsufficientBalance(f"redeem would burn tokens {p.vmno} holds in channel escrow")
            self.burn(list(p.lots))
        elif isinstance(p, AgreementRegistration):
            if tx.signer != p.hmno:
                raise PayloadRejected(f"agreement {p.hmno}->{p.vmno} signed by {tx.signer}")
            if p.hmno not in self.operators or p.vmno not in self.operators:
                raise UnknownMno(f"{p.hmno}/{p.vmno}")
            if (p.hmno, p.vmno) in self.agreements:
                raise DuplicateAgreement(f"{p.hmno}->{p.vmno}")
            from .settlement import model_from_dict  # settlement imports this module
            try:
                model_from_dict(p.charging)
            except InvalidConfig as exc:
                raise PayloadRejected(f"agreement {p.hmno}->{p.vmno} charging: {exc}") from None
            self.agreements[(p.hmno, p.vmno)] = p

    def provenance_fault(self, lot_id: str, hmno: str, vmno: Optional[str] = None) -> Optional[str]:
        """Why a lot fails provenance, or None.  It must descend from an issue
        by ``hmno`` into the wallet its lineage starts at (an hmno wallet, as
        ``apply`` checks); with ``vmno`` given, it must also be held by the VMNO
        treasury, having reached it through the close of a VMNO channel."""
        lot = self.lot(lot_id)
        root = lot.lineage[0]
        issued = getattr(self.ledger.tx_index.get(root.tx_id), "payload", None)
        if not isinstance(issued, Issue) or issued.wallet != root.holder:
            return "missing-issuance"
        if issued.issuer != hmno:
            return "wrong-issuer"
        if vmno is None:
            return None
        if lot.holder != treasury_wallet_id(vmno):
            return "not-held-by-claimant"
        paid = getattr(self.ledger.tx_index.get(lot.lineage[-1].tx_id), "payload", None)
        if not isinstance(paid, ChannelClose) or self.channel_opens[paid.channel].vmno != vmno:
            return "not-service-payment"
        return None

    # -- audit surfaces

    def supply_by_issuer(self) -> dict[str, dict[str, int]]:
        """Per issuer, by name: the tokens it issued, those still circulating
        and those burned."""
        circulating: dict[str, int] = {}
        for lot in self.lots.values():
            if not lot.burned:
                circulating[lot.issuer] = circulating.get(lot.issuer, 0) + lot.amount
        return {m: {"issued": self.issued_by.get(m, 0), "circulating": circulating.get(m, 0),
                    "burned": self.burned_by.get(m, 0)}
                for m in sorted(set(self.issued_by) | set(circulating) | set(self.burned_by))}

    def supply_closure_ok(self) -> bool:
        """issued == circulating + burned, per issuer."""
        return all(s["issued"] == s["circulating"] + s["burned"] for s in self.supply_by_issuer().values())

    @classmethod
    def rebuild_from_ledger(cls, chain: Ledger | list[Block]) -> "TokenBank":
        """The bank ``verify_blocks`` leaves after replaying a ledger's sealed
        blocks, or loaded blocks; raises ReplayRejected if they do not verify."""
        verdict, bank = verify_blocks(chain.chain if isinstance(chain, Ledger) else chain)
        if not verdict.valid:
            raise ReplayRejected(verdict.first_invalid_height, verdict.reason)
        return bank


def verify_blocks(chain: list[Block]) -> tuple[ValidityReport, Optional[TokenBank]]:
    """Replay a chain through ``TokenBank(Ledger.from_genesis(chain[0]))``:
    submit each later block's txs, reseal it at its stored time and require
    it to equal the stored block.  Returns the verdict, with the first failing
    height, and the bank (None if no ledger could be anchored).  An empty
    chain is invalid at height 0: the live ledger always seals genesis."""
    # harness passes the whole loaded list, not a stream: perfbench's tracer counts its txs.
    if not chain:
        return ValidityReport(False, 0, "no genesis block"), None
    height, tx, bank = 0, None, None
    try:
        bank = TokenBank(Ledger.from_genesis(chain[0]))
        ledger = bank.ledger
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
                return ValidityReport(False, height, f"{name} mismatch"), bank
    except Exception as exc:  # a loaded chain can hold anything
        rejected = "block" if tx is None else f"{tx.payload.kind} tx"
        return ValidityReport(False, height, f"{rejected} rejected: {type(exc).__name__}: {exc}"), bank
    return ValidityReport(True), bank
