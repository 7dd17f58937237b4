"""What is hashed and MACed (the JSON text each saved line holds), the
ledger's JSON writer, merkle and signature primitives."""

import dataclasses
import enum
import hashlib
import json
import math
import re
import struct
from typing import get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dice import codec
from dice.channel import proof_format
from dice.errors import LedgerParseError, PayloadRejected
from dice.ledger import (
    _INT_BOUND,
    AgreementRegistration,
    AttachCheck,
    ChannelClose,
    ChannelOpen,
    Issue,
    Ledger,
    Redeem,
    Transaction,
    block_digest,
    load_blocks_jsonl,
    tx_digest,
)

from helpers import RenamedClose, record_of


def dumps(value) -> str:
    """The JSON text of ``value`` as a saved line writes it."""
    return json.dumps(value, separators=(",", ":"))


def sha256(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 20


class Name(str):
    pass


class Blob(bytes):
    pass


def test_golden_digests_pin_the_format():
    opened = ChannelOpen("ch-0000007", "w-0000003", "V", 25, bytes(range(32)), 604_900)
    body = ('{"timestamp":100,"signer":"alice","payload":{"kind":"channel_open","channel":"ch-0000007",'
            f'"wallet":"w-0000003","vmno":"V","deposit":25,"hashlock":"{bytes(range(32)).hex()}",'
            '"timelock_expiry":604900}}')
    assert tx_digest(100, "alice", opened) == sha256(body)
    assert tx_digest(100, "alice", opened).hex() == (
        "4ce9ea48ed225a7a07471fed78b8be53c04ef43bd3fc102595f24f545befe491")
    header = ('{"height":1,"prev_hash":"' + "00" * 32 + '","tx_root":"' + bytes(range(32)).hex()
              + '","validator":"V","sealed_at":100}')
    assert block_digest(1, bytes(32), bytes(range(32)), "V", 100) == sha256(header)
    assert block_digest(1, bytes(32), bytes(range(32)), "V", 100).hex() == (
        "5ffb5207640365a1dfb6c1051032835f549b307d8c546437574c2a47cd66d312")
    genesis = Ledger(["H", "V"], {"V": b"v", "H": b"h"}).chain[0]
    assert genesis.tx_root == sha256('{"roster":["H","V"],"keys":{"H":"68","V":"76"}}')
    assert genesis.tx_root.hex() == "ba88e4240c993b4fc628c2e8a5d749e6224415493ae835614903f261f8968dab"
    assert proof_format("ch-0000007") % (3, 3) == b'["proof","ch-0000007",3,3]'


# What the JSON writer must escape or write whole: quotes, backslashes,
# control characters, non-ASCII, astral characters and lone surrogates; ints
# past 64 bits either side of 0.  Each field's values are exactly of its
# declared type and JSON states them, as the door lets through; the one
# float field, ``Redeem.fiat``, holds any float but NaN.
texts = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀\ud800 a') | st.characters(
    blacklist_categories=()), max_size=12)
ints = st.integers() | st.integers(min_value=2 ** 64, max_value=10 ** 300).flatmap(
    lambda n: st.sampled_from([n, -n]))
scalars = texts | ints | st.booleans() | st.floats(allow_nan=False, allow_infinity=False) | st.none()
names = st.lists(texts, max_size=4).map(tuple)
dicts = st.dictionaries(texts, scalars | st.lists(scalars, max_size=3), max_size=4)
JSON_FIELDS = {
    Issue: (texts, texts, ints),
    AgreementRegistration: (texts, texts, names, dicts),
    AttachCheck: (texts, texts, texts, st.booleans()),
    ChannelOpen: (texts, texts, texts, ints, st.binary(max_size=80), ints),
    ChannelClose: (texts, ints, ints, ints),
    Redeem: (texts, texts, names, st.floats(allow_nan=False)),
}


# The payload classes and subclasses that keep their kind, which the door
# lets through; ``RenamedClose`` renames its own, so the door rejects it.
PAYLOAD_CLASSES = [*JSON_FIELDS, *(type(f"Sub{cls.__name__}", (cls,), {}) for cls in JSON_FIELDS)]


def payloads(field_values=lambda declared: declared, classes=PAYLOAD_CLASSES):
    """Payloads of each of ``classes``, each field drawn from
    ``field_values`` of its declared values."""
    return st.sampled_from(classes).flatmap(lambda cls: st.builds(cls, *map(
        field_values, next(fields for base, fields in JSON_FIELDS.items() if issubclass(cls, base)))))


json_payloads = payloads()
json_txs = st.builds(Transaction, st.binary(max_size=64), ints, texts, json_payloads, st.binary(max_size=64))
# Values of other types, or that JSON cannot state, as a tx built past the
# door may hold: str, int and bytes subclasses, a bytearray, NaN and the
# infinities, an int longer than ``str`` writes, a dict with a key that is
# not a str or a value JSON cannot state, a list holding bytes.
json_texts, json_ints = texts | st.text(max_size=8).map(Name), ints | st.sampled_from(Colour)
odd_values = (json_texts | json_ints | st.binary(max_size=8) | st.binary(max_size=8).map(bytearray)
              | st.binary(max_size=8).map(Blob) | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 5000])
              | st.dictionaries(st.integers(), scalars, min_size=1, max_size=2)
              | st.dictionaries(texts, st.sampled_from([math.nan, -math.inf, b"x", 10 ** 5000]), min_size=1, max_size=2)
              | st.lists(st.binary(max_size=4), min_size=1, max_size=2))


def half(declared, other):
    """``declared`` half the time and ``other`` otherwise: ``|`` would weigh
    each of the strategies ``other`` joins as much as ``declared``."""
    return st.booleans().flatmap(lambda typed: declared if typed else other)


# Each field holds a value of its declared type half the time, and any value
# otherwise; the class may rename its kind.
mixed_payloads = payloads(lambda declared: half(declared, scalars | odd_values), [*PAYLOAD_CLASSES, RenamedClose])
# Roster and key-registry actor names, which genesis writes and hashes escaped.
actor_names = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀\ud800 a'), max_size=8)


def is_json(value) -> bool:
    """Whether ``json.loads`` reads ``value`` back, type for type, from the
    text ``json.dumps`` writes for it."""
    try:
        return tagged(json.loads(json.dumps(value, allow_nan=False))) == tagged(value)
    except (TypeError, ValueError):
        return False


def of_type(declared, value) -> bool:
    """Whether a field declared ``declared`` may hold ``value``: bytes, or a
    tuple of str, exactly; any float; any other value exactly of its type,
    if JSON states it."""
    if declared is bytes:
        return type(value) is bytes
    if declared is tuple:
        return type(value) is tuple and all(type(s) is str for s in value)
    if declared is float and type(value) is float:
        return True
    return (declared is float or type(value) is declared) and is_json(value)


def well_typed(timestamp, signer, payload) -> bool:
    """Whether each value may be what it is, and the payload's kind is the
    one its payload class was declared with."""
    hints = get_type_hints(type(payload))
    declared = next(cls for cls in JSON_FIELDS if isinstance(payload, cls))
    return payload.kind == declared.kind and of_type(int, timestamp) and of_type(str, signer) and all(
        of_type(get_origin(hints[f.name]) or hints[f.name], getattr(payload, f.name))
        for f in dataclasses.fields(payload))


@given(ints, texts, json_payloads)
@example(0, "A", AgreementRegistration("H", "V", (), {"b": [{"d": 1, "c": 2}], "a": {"f": None, "e": 1.5}}))
def test_tx_digest_is_the_digest_of_the_canonical_value(timestamp, signer, payload):
    """A tx id is the SHA-256 of ``{"timestamp":…,"signer":…,"payload":…}``."""
    value = {"timestamp": timestamp, "signer": signer, "payload": record_of(payload)}
    assert tx_digest(timestamp, signer, payload) == sha256(dumps(value))
    assert payload.to_json() == dumps(record_of(payload))


@given(half(ints, odd_values), half(texts, odd_values), half(json_payloads, mixed_payloads))
# One mistyped value each, every other value exactly of its type.
@example(7, "H", Issue("H", "w", True))
@example(7, "H", Issue("H", 7, 5))
@example(7, "H", AttachCheck("w", "V", "H", 1))
@example(7, "H", ChannelOpen("c", "w", "V", 1, bytearray(b"ab"), 2))
@example(True, "H", Issue("H", "w", 5))
@example(7, 5, Issue("H", "w", 5))
@example(7, Name("H"), Issue("H", Name("w"), Colour.BLUE))
@example(10 ** 5000, "H", Issue("H", "w", 5))
@example(7, "H", Redeem("V", "H", ("l",), 10 ** 5000))
@example(7, "H", RenamedClose("c", 1, 2, 3))
def test_tx_digest_rejects_exactly_what_is_mistyped(timestamp, signer, payload):
    """``tx_digest`` raises PayloadRejected exactly when some value is not
    of its declared type or no JSON text states it, or the payload's class
    renames its kind, and otherwise is the
    SHA-256 of ``{"timestamp":…,"signer":…,"payload":…}``."""
    if not well_typed(timestamp, signer, payload):
        with pytest.raises(PayloadRejected, match="must be of type"):
            tx_digest(timestamp, signer, payload)
        return
    value = {"timestamp": timestamp, "signer": signer, "payload": record_of(payload)}
    assert tx_digest(timestamp, signer, payload) == sha256(dumps(value))
    assert payload.to_json() == dumps(record_of(payload))


def _txs(*cases):
    return [Transaction(b"\x01", timestamp, signer, payload, b"\x02") for timestamp, signer, payload in cases]


# Per kind the loader reads, its payload class.
KINDS = {cls.kind: cls for cls in JSON_FIELDS}
# A high surrogate then a low one: two characters that JSON writes as the
# escapes of one astral character, and so reads back as that one.
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def unloadable(tx) -> bool:
    """Whether the loader rejects the line of ``tx``: it holds a non-finite
    float, which is not JSON."""
    return isinstance(tx.payload, Redeem) and math.isinf(tx.payload.fiat)


def as_loaded(block):
    """``block`` as the loader reads it: each payload of its kind's class."""
    return dataclasses.replace(block, txs=tuple(dataclasses.replace(tx, payload=KINDS[tx.payload.kind](
        *(getattr(tx.payload, f.name) for f in dataclasses.fields(tx.payload)))) for tx in block.txs))


@settings(deadline=None)
@given(st.lists(actor_names, min_size=1, max_size=3), st.dictionaries(actor_names, st.binary(max_size=40), max_size=4),
       st.lists(st.lists(json_txs, min_size=1, max_size=4), max_size=3))
# Values at the edges of what JSON states.
@example(["H"], {"H": b"k"}, [_txs((-7, "H", Issue("H", "w", -(10 ** 300)))),
                               _txs((7, "\ud800", Redeem("V", "H", (), -math.inf)),
                                    (7, "H", AgreementRegistration("H", "V", (), {"a": [None, -0.0, 1e308]})))])
@example(["\ud800"], {"\udfff": b"k"}, [
    _txs((7, "\ud800", AgreementRegistration("H", "V", ("\udc00",), {"\ud800": [-0.0, 1e308, 10 ** 300]})),
         (-(10 ** 300), "H", Redeem("V", "H", (), -0.0))),
    _txs((7, "\ud83d\ude00", Issue("H", "w", 1)))])
def test_each_saved_line_is_json_dumps_of_its_block_record(tmp_path_factory, roster, keys, blocks):
    """Each tx goes straight to ``pending``, past the ledger's rules but
    holding only values the door lets through.  No saved line is falsely
    rejected: the chain loads back to ``ledger.chain``, up to the first line
    ``unloadable`` names, which is a parse error at that line."""
    ledger = Ledger(roster, keys)
    for height, txs in enumerate(blocks, start=1):
        ledger.pending.extend(txs)
        ledger.seal_block(height)
    path = tmp_path_factory.mktemp("saved") / "chain.jsonl"
    ledger.save_jsonl(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [dumps(record_of(b)) for b in ledger.chain] + [""]
    stop = next((i for i, b in enumerate(ledger.chain) if any(map(unloadable, b.txs))), len(ledger.chain))
    if stop < len(ledger.chain):
        with pytest.raises(LedgerParseError) as err:
            load_blocks_jsonl(path)
        assert err.value.line == stop
        path.write_text("".join(line + "\n" for line in lines[:stop]), encoding="utf-8")
    for block, loaded in zip(ledger.chain[:stop], load_blocks_jsonl(path), strict=True):
        if not SURROGATE_PAIR.search(json.dumps(record_of(block), ensure_ascii=False)):
            assert loaded == as_loaded(block)


def header_text(height, prev_hash, tx_root, validator, sealed_at) -> str:
    return dumps({"height": height, "prev_hash": prev_hash.hex(), "tx_root": tx_root.hex(),
                  "validator": validator, "sealed_at": sealed_at})


@given(ints, st.binary(max_size=300), st.binary(max_size=300), texts, ints)
def test_block_digest_is_the_digest_of_the_header_list(height, prev_hash, tx_root, validator, sealed_at):
    """A block hash is the SHA-256 of its header, the fields its line starts
    with, for each header value exactly of its type."""
    header = header_text(height, prev_hash, tx_root, validator, sealed_at)
    assert block_digest(height, prev_hash, tx_root, validator, sealed_at) == sha256(header)


# Header values of another type than a header holds: a bool, a float, an int
# or str subclass, an int longer than ``str`` writes; a str for an int, and
# an int for the validator.
odd_header_values = (st.booleans() | st.floats() | st.sampled_from(Colour) | st.text(max_size=8).map(Name)
                     | st.sampled_from([_INT_BOUND, -_INT_BOUND, 10 ** 5000]))


@given(half(ints, odd_header_values | texts), half(texts, odd_header_values | ints),
       half(ints, odd_header_values | texts))
@example(1, "V", 2.5)
@example(1, "V", True)
@example(1, "V", "5")
@example(True, "V", 5)
@example(1, Name("V"), 5)
@example(1, 7, 5)
@example(1, "V", Colour.BLUE)
@example(_INT_BOUND - 1, "V", -_INT_BOUND + 1)
@example(_INT_BOUND, "V", 5)
def test_block_digest_rejects_exactly_a_mistyped_header_value(height, validator, sealed_at):
    """``block_digest`` raises PayloadRejected, naming the field, exactly
    when the height or sealed_at is not exactly an int no longer than
    ``str`` writes, or the validator not exactly a str."""
    typed = {"height": of_type(int, height), "validator": of_type(str, validator),
             "sealed_at": of_type(int, sealed_at)}
    if not all(typed.values()):
        first = next(name for name, ok in typed.items() if not ok)
        with pytest.raises(PayloadRejected, match=f"^{first} must be of type"):
            block_digest(height, bytes(32), bytes(32), validator, sealed_at)
        return
    header = header_text(height, bytes(32), bytes(32), validator, sealed_at)
    assert block_digest(height, bytes(32), bytes(32), validator, sealed_at) == sha256(header)


def agreement_id(charging) -> bytes:
    return tx_digest(0, "H", AgreementRegistration("H", "V", ("H",), charging))


def test_encoding_is_stable_and_type_tagged():
    assert agreement_id({"a": 5}) == agreement_id({"a": 5})
    assert agreement_id({"a": 5}) != agreement_id({"a": "5"})
    assert agreement_id({"a": True}) != agreement_id({"a": 1})
    assert agreement_id({"a": [1, 2]}) != agreement_id({"a": [[1], 2]})
    assert agreement_id({"a": 1, "b": 2}) == agreement_id({"b": 2, "a": 1})
    with pytest.raises(PayloadRejected, match="^amount must be of type int"):
        tx_digest(0, "H", Issue("H", "w", "5"))


def test_encoding_rejects_non_string_dict_keys():
    with pytest.raises(PayloadRejected, match="^charging must be of type"):
        agreement_id({1: "x"})
    with pytest.raises(PayloadRejected, match="^charging must be of type"):
        agreement_id({"a": [{2: 0}]})


def tagged(value):
    """``value`` with every scalar paired with its type, and floats compared
    by their packed bytes: equal exactly when a tx id must hash equally.

    Plain ``==`` is not that: ``False == 0``, ``1 == 1.0`` and
    ``0.0 == -0.0``, yet the JSON text rightly tells each pair apart.
    """
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    if isinstance(value, list):
        return ("list", tuple(tagged(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, tagged(value[k])) for k in sorted(value)))
    return (type(value).__name__, value)


def test_tagged_form_separates_what_equality_conflates():
    for a, b in [(False, 0), (True, 1), (1, 1.0), (0.0, -0.0), ([0], [False])]:
        assert a == b and tagged(a) != tagged(b)
        assert agreement_id({"v": a}) != agreement_id({"v": b})


# JSON values, dicts at any depth in any insertion order.
plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(plain_values, plain_values)
@example({"a": 1, "b": {"c": 2, "d": [3]}}, {"b": {"d": [3], "c": 2}, "a": 1})
def test_distinct_values_encode_distinctly(a, b):
    assert (agreement_id({"v": a}) == agreement_id({"v": b})) == (tagged(a) == tagged(b))


def _merkle_reference(leaves):
    # Independent recursive formulation of the same tree shape.
    if len(leaves) == 1:
        return leaves[0]
    paired = []
    for i in range(0, len(leaves) - 1, 2):
        paired.append(hashlib.sha256(leaves[i] + leaves[i + 1]).digest())
    if len(leaves) % 2:
        paired.append(leaves[-1])
    return _merkle_reference(paired)


def test_merkle_small_cases():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(8)]
    assert codec.merkle_root(leaves[:1]) == leaves[0]
    assert codec.merkle_root(leaves[:2]) == hashlib.sha256(leaves[0] + leaves[1]).digest()
    for n in range(1, 9):
        assert codec.merkle_root(leaves[:n]) == _merkle_reference(leaves[:n])


def test_merkle_is_order_sensitive():
    a, b = codec.digest(b"a"), codec.digest(b"b")
    assert codec.merkle_root([a, b]) != codec.merkle_root([b, a])


def _keyed_blake2s(key: bytes, msg: bytes) -> bytes:
    """Keyed BLAKE2s-256 from hashlib directly; a key over 32 bytes is hashed
    to 32 bytes with unkeyed BLAKE2s first."""
    if len(key) > 32:
        key = hashlib.blake2s(key).digest()
    return hashlib.blake2s(msg, key=key).digest()


def test_keyed_mac_signer_roundtrip():
    keys = {"alice": b"s1", "bob": b"s2"}
    signer = codec.KeyedMacSigner(keys)
    sig = signer.sign("alice", b"msg")
    assert signer.verify("alice", b"msg", sig)
    assert not signer.verify("bob", b"msg", sig)
    assert not signer.verify("alice", b"other", sig)
    assert not signer.verify("carol", b"msg", sig)
    assert signer.knows("alice") and not signer.knows("carol")
    with pytest.raises(KeyError):
        signer.sign("carol", b"msg")
    # Each signature is plain keyed BLAKE2s-256, and the keyed state reused
    # across messages carries nothing from one message to the next.
    m1, m2 = b"first message", b"second"
    signed = [("alice", m1), ("alice", m2), ("alice", m1), ("bob", m1)]
    sigs = [signer.sign(actor, msg) for actor, msg in signed]
    for s, (actor, msg) in zip(sigs + [sig], signed + [("alice", b"msg")]):
        assert s == _keyed_blake2s(keys[actor], msg)
        assert signer.verify(actor, msg, s)
    assert sigs[0] == sigs[2] != sigs[1]
    assert not signer.verify("alice", m1, sigs[1])


@pytest.mark.parametrize("key_len", [0, 1, 31, 32, 33, 64, 200])
def test_keyed_mac_matches_keyed_blake2s_at_key_and_message_edges(key_len):
    # Keys longer than BLAKE2s's 32-byte key limit are hashed first; shorter
    # ones key the state as they are.  Each length is checked with several
    # messages, 44 bytes being a balance proof's.
    key = bytes((7 * i + key_len) % 256 for i in range(key_len))
    signer = codec.KeyedMacSigner({"a": key})
    for msg_len in (0, 32, 44, 1000):
        msg = bytes((3 * i + msg_len) % 256 for i in range(msg_len))
        sig = signer.sign("a", msg)
        assert sig == _keyed_blake2s(key, msg)
        assert signer.verify("a", msg, sig)
        for bit in (0, 8 * len(sig) - 1):
            flipped = (int.from_bytes(sig, "big") ^ (1 << bit)).to_bytes(len(sig), "big")
            assert not signer.verify("a", msg, flipped)
    m1, m2 = b"m1", b"m2"
    first = signer.sign("a", m1)
    assert signer.sign("a", m2) != first
    assert signer.sign("a", m1) == first


def test_derived_keys_and_seeds_are_stable():
    assert codec.derive_key(1, "a") == codec.derive_key(1, "a")
    assert codec.derive_key(1, "a") != codec.derive_key(2, "a")
    assert codec.derive_seed(1, "x") == codec.derive_seed(1, "x")
    assert codec.derive_seed(1, "x") != codec.derive_seed(1, "y")
