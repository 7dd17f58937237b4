"""Test-side helpers built on the live entry points."""

from dice.protocol import DiceEngine, RoamerSession
from dice.tokenbank import TokenBank


def run_session(eng: DiceEngine, session: RoamerSession, traffic_trace: list[tuple[int, int]],
                deposit: int) -> RoamerSession:
    """Open the session's channel at its clock, then deliver a traffic trace
    of (time, bytes) in time order, as ``run_scenario`` drives a visit."""
    eng.open_session_channel(session, deposit, session.clock)
    for when, nbytes in sorted(traffic_trace):
        eng.session_traffic(session, nbytes, when)
    return session


def bank_snapshot(bank: TokenBank) -> dict:
    """Replay-comparable projection of the bank state.

    Wallet owners are excluded: they never touch the ledger, so a rebuilt
    bank cannot know them.
    """
    return {
        "lots": {
            lid: {
                "issuer": lot.issuer,
                "amount": lot.amount,
                "burned": lot.burned,
                "lineage": [(h, t.hex()) for h, t in lot.lineage],
            }
            for lid, lot in sorted(bank.lots.items())
        },
        "wallets": {
            wid: {"home": w.home_mno, "lots": sorted(lid for lots in w.lots.values() for lid in lots)}
            for wid, w in sorted(bank.wallets.items())
        },
        "locks": {
            wid: dict(sorted(chans.items()))
            for wid, chans in sorted(bank.locks.items()) if chans
        },
        "issued": dict(sorted(bank.issued_by.items())),
        "burned": dict(sorted(bank.burned_by.items())),
    }
