"""Issuance, custody and provenance tracking of per-MNO tokens.

``TokenBank.apply`` states every token rule of the on-chain transactions
once, and the rules of agreements, attach checks, channel opens and
redeems (signer, roster, one agreement per pair, a charging spec
``model_from_dict`` reads, a checked wallet homed at the hmno, each check's
verdict the one ``attach_refusal`` gives and the engine records, an open's
32-byte hashlock and expiry after its timestamp, an agreement accepting
the hmno behind each redeem, whose fiat is ``agreed_price``): the ledger
the bank is attached to runs each submitted transaction through it.
The charging models and ``price`` live here; ``agreed_price``, the price
of the pair's registered agreement, is the one caller of ``price``.
``verify_blocks`` is the one replay of a persisted chain, through a fresh
ledger with a new bank attached: a chain verifies only if the live engine
could have produced it, and the replay holds the live state.  The
operators (the only actors that may issue or sign agreements and attach
checks) and every signing key come from the ledger's genesis roster and
key registry, so ``TokenBank(ledger)`` needs nothing else.  Every lot
carries its lineage from the issuance event, whose tx ids provenance checks
read through ``Ledger.get_tx``; a wallet keeps its lots by issuer.  Lot ids
count the lots.  One token pays for one 100KB traffic block by default.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple, Optional, Union

from .errors import (
    AlreadyBurned,
    AlreadyClosed,
    DiceError,
    DuplicateAgreement,
    ForeignWallet,
    InsufficientBalance,
    InvalidConfig,
    NoAgreement,
    NonPositiveAmount,
    NotIssuer,
    NoTokens,
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
                     Redeem, Transaction, ValidityReport, record)
from .workload import AMOUNT, COUNT, FRACTION, _check_schema, _fault, knob

TOKEN_BLOCK_BYTES = 100_000  # billing granularity: one token per started 100KB


def tokens_for_bytes(nbytes: int) -> int:
    """Tokens needed to cover nbytes at the 100KB granularity, rounding up."""
    return -(-nbytes // TOKEN_BLOCK_BYTES)


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


class LineageEntry(NamedTuple):
    holder: str
    tx_id: bytes


@dataclass(slots=True)
class Wallet:
    owner: Optional[str]
    home_mno: str
    # issuer -> {lot_id: lot}, each in the order the lots arrived.
    lots: dict[str, dict[str, TokenLot]] = field(default_factory=dict)


@dataclass(slots=True)
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
        # Each channel's open, which provenance reads beside ``Ledger.get_tx``.
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
        return self.ledger.append(now, hmno, Issue(hmno, wallet_id, amount))

    def create_identities(self, hmno: str, roamer: str, n: int, amounts: list[int], now: int) -> list[str]:
        """Fund n unlinkable wallets for one roamer (privacy via identities).
        A rejected issue leaves no wallet of its own: no replay holds one."""
        if n < 1 or len(amounts) != n:
            raise NonPositiveAmount(f"need n>=1 wallets and {n} amounts")
        wallet_ids = []
        for amount in amounts:
            wallet_ids.append(self.create_wallet(roamer, hmno))
            try:
                self.issue(hmno, wallet_ids[-1], amount, now)
            except DiceError:   # a rule rejected it, before the ledger took it
                del self.wallets[wallet_ids.pop()]
                raise
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

    def agreement_accepts(self, hmno: str, vmno: str) -> bool:
        """Whether a registered agreement lets ``vmno`` accept ``hmno``'s tokens."""
        agreement = self.agreements.get((hmno, vmno))
        return agreement is not None and hmno in agreement.accepts

    def attach_refusal(self, wallet_id: str, hmno: str, vmno: str) -> Optional[DiceError]:
        """Why ``vmno`` must refuse the wallet's attach, or None if it accepts
        it: no agreement letting it accept hmno's tokens, or no hmno tokens
        in the wallet (each issued on the chain by hmno: the Issue rule)."""
        if not self.agreement_accepts(hmno, vmno):
            return NoAgreement(f"{hmno}->{vmno}")
        if self.balance(wallet_id, hmno) == 0:
            return NoTokens(wallet_id)
        return None

    def agreed_price(self, hmno: str, vmno: str, tokens: int) -> Optional[float]:
        """What the registered (hmno, vmno) agreement charges for ``tokens``
        of hmno's, or None if no agreement lets vmno accept them: the one
        price a redeem may carry."""
        if not self.agreement_accepts(hmno, vmno):
            return None
        return price(model_from_dict(self.agreements[(hmno, vmno)].charging), tokens)

    # -- the token rules

    def apply(self, tx: Transaction) -> None:
        """Check an authenticated transaction against the rules of its payload
        kind, then apply it; raise, leaving the bank unchanged, if a rule fails.
        Its values passed the door, ``ledger._check_tx``: each int field is an int."""
        p = tx.payload
        if isinstance(p, AttachCheck):
            if tx.signer != p.vmno:
                raise PayloadRejected(f"attach check for {p.vmno} signed by {tx.signer}")
            if p.hmno not in self.operators or p.vmno not in self.operators:
                raise UnknownMno(f"{p.hmno}/{p.vmno}")
            w = self.wallet(p.roamer_wallet)
            if w.home_mno != p.hmno:
                raise ForeignWallet(f"{p.roamer_wallet} belongs to {w.home_mno}, not {p.hmno}")
            refusal = self.attach_refusal(p.roamer_wallet, p.hmno, p.vmno)
            if p.accepted and refusal is not None:
                raise refusal
            if not p.accepted and refusal is None:
                raise PayloadRejected(f"attach check refuses {p.roamer_wallet}, which {p.vmno} accepts")
        elif isinstance(p, Issue):
            if tx.signer != p.issuer or p.issuer not in self.operators:
                raise NotIssuer(f"{p.issuer}, signed by {tx.signer}")
            w = self.wallets.get(p.wallet)
            if w is not None and w.home_mno != p.issuer:
                raise ForeignWallet(f"{p.wallet} belongs to {w.home_mno}, not {p.issuer}")
            if p.amount <= 0:
                raise NonPositiveAmount(repr(p.amount))
            self.create_wallet(None, p.issuer, p.wallet)
            lot = TokenLot(self._next_lot_id(), p.issuer, p.amount, [LineageEntry(p.wallet, tx.tx_id)])
            self.lots[lot.lot_id] = lot
            self.wallets[p.wallet].lots.setdefault(p.issuer, {})[lot.lot_id] = lot
            self.issued_by[p.issuer] = self.issued_by.get(p.issuer, 0) + p.amount
        elif isinstance(p, ChannelOpen):
            if p.deposit <= 0:
                raise ZeroDeposit(repr(p.deposit))
            if p.vmno not in self.operators:
                raise UnknownMno(p.vmno)
            if len(p.hashlock) != 32:
                raise PayloadRejected(f"open of {p.channel}: hashlock of {len(p.hashlock)} bytes, not 32")
            if p.timelock_expiry <= tx.timestamp:
                raise PayloadRejected(f"open of {p.channel}: timelock_expiry {p.timelock_expiry} is not after "
                                      f"its timestamp {tx.timestamp}")
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
            if min(p.paid, p.refunded, p.final_seq) < 0 or p.paid + p.refunded != opened.deposit:
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
            tokens = sum(self.lot(l).amount for l in p.lots)
            if tokens > self.spendable(treasury_wallet_id(p.vmno), p.hmno):
                raise InsufficientBalance(f"redeem would burn tokens {p.vmno} holds in channel escrow")
            agreed = self.agreed_price(p.hmno, p.vmno, tokens)
            if agreed is None:
                raise NoAgreement(f"{p.hmno}->{p.vmno}")
            if p.fiat != agreed:
                raise PayloadRejected(f"redeem for {p.vmno}: fiat {p.fiat!r} is not the agreed price {agreed!r}")
            self.burn(list(p.lots))
        elif isinstance(p, AgreementRegistration):
            if tx.signer != p.hmno:
                raise PayloadRejected(f"agreement {p.hmno}->{p.vmno} signed by {tx.signer}")
            if p.hmno not in self.operators or p.vmno not in self.operators:
                raise UnknownMno(f"{p.hmno}/{p.vmno}")
            if (p.hmno, p.vmno) in self.agreements:
                raise DuplicateAgreement(f"{p.hmno}->{p.vmno}")
            try:
                model_from_dict(p.charging)
            except InvalidConfig as exc:
                raise PayloadRejected(f"agreement {p.hmno}->{p.vmno} charging: {exc}") from None
            self.agreements[(p.hmno, p.vmno)] = p

    def provenance_fault(self, lot_id: str, hmno: str, vmno: str) -> Optional[str]:
        """Why a lot fails provenance, or None.  It must descend from an issue
        by ``hmno`` into the wallet its lineage starts at (an hmno wallet, as
        ``apply`` checks), and be held by the VMNO treasury, having reached it
        through the close of a VMNO channel."""
        lot = self.lot(lot_id)
        root = lot.lineage[0]
        issued = getattr(self.ledger.get_tx(root.tx_id), "payload", None)
        if not isinstance(issued, Issue) or issued.wallet != root.holder:
            return "missing-issuance"
        if issued.issuer != hmno:
            return "wrong-issuer"
        if lot.holder != treasury_wallet_id(vmno):
            return "not-held-by-claimant"
        paid = getattr(self.ledger.get_tx(lot.lineage[-1].tx_id), "payload", None)
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
    """Replay a chain through a bank on a fresh ``Ledger`` of its genesis's
    roster and keys, sealed at 0: submit each later block's txs, reseal it at
    its stored time, and require each block to equal the stored one.  Returns
    the verdict, with the first failing height, and the bank (None if no
    ledger could be anchored).  An empty chain, or a genesis stored at a
    time but 0, is invalid at height 0: the live ledger always seals one, at 0."""
    # harness passes the whole loaded list, not a stream: perfbench's tracer counts its txs.
    if not chain:
        return ValidityReport(False, 0, "no genesis block"), None
    height, tx, bank = 0, None, None
    try:
        bank = TokenBank(Ledger(list(chain[0].roster), chain[0].keys))
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
