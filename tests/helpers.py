"""Test-side helpers built on the live entry points."""

import ast
import dataclasses
import hashlib
import inspect
import json
import textwrap
import typing

from dice.ledger import Block, ChannelClose, Transaction, TxPayload
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


def forged_tx(signer_backend, timestamp, signer: str, payload) -> Transaction:
    """A tx signed by ``signer``'s key in ``signer_backend``, whose id is the
    SHA-256 of the ``json.dumps`` text of its record without id and
    signature.  It is built past ``tx_digest``, so it may hold values of any
    type, as a forger's may; for values the door lets through, its id is the
    one ``tx_digest`` gives."""
    body = record_of(Transaction(b"", timestamp, signer, payload, b""))
    del body["tx_id"], body["signature"]
    tx_id = hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).digest()
    return Transaction(tx_id, timestamp, signer, payload, signer_backend.sign(signer, tx_id))


def record_of(value, hint=None):
    """What ``json.loads`` reads from the text of a block, tx or payload, from
    its fields by their declared types: bytes as hex, a tuple as a list, dicts
    with keys sorted at every depth, a payload's kind first, roster and keys
    on genesis alone.  The oracle of ``_block_line``: it calls no generated method."""
    hint = hint or type(value)
    origin = typing.get_origin(hint) or hint
    if origin is typing.Union:   # an Optional field, by its value's own type
        return record_of(value)
    if origin is bytes:
        return value.hex()
    if origin in (tuple, list):
        return [record_of(item, (typing.get_args(hint) or (type(item),))[0]) for item in value]
    if origin is dict:   # below a dict, each value by its own type
        return {key: record_of(value[key]) for key in sorted(value)}
    if not (dataclasses.is_dataclass(origin) or hint is TxPayload):
        return value
    hints = typing.get_type_hints(type(value))
    rec = {} if isinstance(value, (Block, Transaction)) else {"kind": value.kind}
    rec.update((f.name, record_of(getattr(value, f.name), hints[f.name])) for f in dataclasses.fields(value)
               if not (f.name in ("roster", "keys") and value.height))
    return rec


class RenamedClose(ChannelClose):
    """A close whose class renames its kind: the loader reads no such kind,
    so the door rejects it, naming ``kind``."""
    kind = "channel_close_v2"


def all_raises(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]


def mutants(function, raises_of=all_raises):
    """``function`` with one of the ``raise``s that ``raises_of`` picks from
    its parsed source replaced by ``pass``, once per raise, as (the raise's
    source, the mutant)."""
    module = inspect.getmodule(function)
    source = textwrap.dedent(inspect.getsource(function))
    for i in range(len(raises_of(ast.parse(source)))):
        tree = ast.parse(source)
        target = raises_of(tree)[i]

        class Unraise(ast.NodeTransformer):
            def visit_Raise(self, node):
                return ast.copy_location(ast.Pass(), node) if node is target else node

        namespace = dict(vars(module))
        exec(compile(Unraise().visit(tree), inspect.getsourcefile(function), "exec"), namespace)
        yield ast.unparse(target), namespace[function.__name__]
