"""Exception taxonomy shared across the simulator modules."""


class DiceError(Exception):
    """Base class for all domain errors."""


# --- ledger ---------------------------------------------------------------

class DuplicateTx(DiceError):
    pass


class BadSignature(DiceError):
    pass


class UnknownSigner(DiceError):
    pass


class PayloadRejected(DiceError):
    pass


class EmptyPending(DiceError):
    pass


class ReplayRejected(DiceError):
    """A chain that does not verify, met while rebuilding state from it."""

    def __init__(self, height: int, reason: str):
        super().__init__(f"height {height}: {reason}")
        self.height = height


class LedgerParseError(DiceError):
    """Persisted ledger file is not decodable; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- token bank -----------------------------------------------------------

class NotIssuer(DiceError):
    pass


class ForeignWallet(DiceError):
    pass


class NonPositiveAmount(DiceError):
    pass


class InsufficientBalance(DiceError):
    pass


class UnknownWallet(DiceError):
    pass


class UnknownLot(DiceError):
    pass


# --- payment channels -----------------------------------------------------

class ZeroDeposit(DiceError):
    pass


class UnknownChannel(DiceError):
    pass


class ChannelNotOpen(DiceError):
    pass


class AlreadyClosed(DiceError):
    pass


class Expired(DiceError):
    pass


class StaleProof(DiceError):
    pass


class GapSeq(DiceError):
    pass


class Overdraft(DiceError):
    pass


class BadPreimage(DiceError):
    pass


# --- protocol -------------------------------------------------------------

class DuplicateAgreement(DiceError):
    pass


class UnknownMno(DiceError):
    pass


class NoAgreement(DiceError):
    pass


class NoTokens(DiceError):
    pass


class WrongState(DiceError):
    pass


class WrongMode(DiceError):
    pass


# --- settlement -----------------------------------------------------------

class ProvenanceRejected(DiceError):
    pass


class AlreadyBurned(DiceError):
    pass


# --- workload / harness ---------------------------------------------------

class InvalidConfig(DiceError):
    pass


class EmptyTrace(DiceError):
    pass


class IoFailure(DiceError):
    pass
