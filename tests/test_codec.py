"""What is hashed and MACed (the JSON text each saved line holds), the
ledger's JSON writer, merkle and signature primitives."""

import dataclasses
import enum
import hashlib
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dice import codec
from dice.channel import PaymentChannel
from dice.ledger import (
    AgreementRegistration,
    AttachCheck,
    ChannelClose,
    ChannelOpen,
    Issue,
    Ledger,
    Redeem,
    Transaction,
    block_digest,
    tx_digest,
)


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
    channel = PaymentChannel(opened, b"", "alice", 0)
    assert channel.proof_message(3, 3) == b'["proof","ch-0000007",3,3]'


# What the JSON writer must escape or write whole: quotes, backslashes,
# control characters, non-ASCII, astral characters and lone surrogates; ints
# past 64 bits either side of 0.  Each field holds a value of its declared
# type half the time, and any scalar otherwise (a bool in an int field, an
# int in a str field), as a tx appended straight to ``pending`` may.
json_texts = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀\ud800 a') | st.characters(
    blacklist_categories=()), max_size=12) | st.text(max_size=8).map(Name)
json_ints = st.integers() | st.integers(min_value=2 ** 64, max_value=10 ** 300).flatmap(
    lambda n: st.sampled_from([n, -n])) | st.sampled_from(Colour)
json_scalars = json_texts | json_ints | st.booleans() | st.floats(allow_nan=False)
json_str, json_int, json_bool, json_float = (
    declared | json_scalars for declared in (json_texts, json_ints, st.booleans(), st.floats(allow_nan=False)))
json_bytes = st.binary(max_size=80) | st.binary(max_size=8).map(bytearray) | st.binary(max_size=8).map(Blob)
json_names = st.lists(json_texts, max_size=4).map(tuple)
json_dicts = st.dictionaries(json_texts, json_scalars | st.lists(json_scalars, max_size=3), max_size=4)
JSON_FIELDS = {
    Issue: (json_str, json_str, json_int),
    AgreementRegistration: (json_str, json_str, json_names, json_dicts),
    AttachCheck: (json_str, json_str, json_str, json_bool),
    ChannelOpen: (json_str, json_str, json_str, json_int, json_bytes, json_int),
    ChannelClose: (json_str, json_int, json_int, json_int),
    Redeem: (json_str, json_str, json_names, json_float),
}


class RenamedClose(ChannelClose):
    kind = "channel_close_v2"


PAYLOAD_CLASSES = [*JSON_FIELDS, RenamedClose,
                   *(type(f"Sub{cls.__name__}", (cls,), {}) for cls in JSON_FIELDS)]
json_payloads = st.sampled_from(PAYLOAD_CLASSES).flatmap(lambda cls: st.builds(
    cls, *next(fields for base, fields in JSON_FIELDS.items() if issubclass(cls, base))))
json_txs = st.builds(Transaction, st.binary(max_size=64), json_int, json_str, json_payloads, st.binary(max_size=64))
# Roster and key-registry actor names, which genesis writes and hashes escaped.
actor_names = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀\ud800 a'), max_size=8)


def record_of(payload) -> dict:
    """The payload's record, from its fields alone: bytes as hex, and a dict
    as ``sort_keys`` writes it, each of its dicts in sorted key order."""
    rec = {"kind": payload.kind}
    for f in dataclasses.fields(payload):
        value = getattr(payload, f.name)
        if isinstance(value, (bytes, bytearray)):
            value = value.hex()
        elif isinstance(value, dict):
            value = json.loads(json.dumps(value, sort_keys=True))
        rec[f.name] = value
    return rec


@given(json_scalars, json_scalars, json_payloads)
@example(0, "A", AgreementRegistration("H", "V", (), {"b": [{"d": 1, "c": 2}], "a": {"f": None, "e": 1.5}}))
def test_tx_digest_is_the_digest_of_the_canonical_value(timestamp, signer, payload):
    """A tx id is the SHA-256 of ``{"timestamp":…,"signer":…,"payload":…}``."""
    value = {"timestamp": timestamp, "signer": signer, "payload": record_of(payload)}
    assert tx_digest(timestamp, signer, payload) == sha256(dumps(value))
    assert payload.to_json() == dumps(record_of(payload))


def _txs(*cases):
    return [Transaction(b"\x01", timestamp, signer, payload, b"\x02") for timestamp, signer, payload in cases]


@settings(deadline=None)
@given(st.lists(actor_names, min_size=1, max_size=3), st.dictionaries(actor_names, st.binary(max_size=40), max_size=4),
       st.lists(st.lists(json_txs, min_size=1, max_size=4), max_size=3))
# One mistyped value each, every other value exactly of its type.
@example(["H"], {"H": b"k"}, [_txs((7, "H", Issue("H", "w", True)), (7, "H", Issue("H", 7, 5)),
                                    (7, "H", AttachCheck("w", "V", "H", 1)),
                                    (7, "H", ChannelOpen("c", "w", "V", 1, bytearray(b"ab"), 2))),
                               _txs((True, "H", Issue("H", "w", 5)), (7, 5, Issue("H", "w", 5)),
                                    (7, Name("H"), Issue("H", Name("w"), Colour.BLUE)))])
def test_each_saved_line_is_json_dumps_of_its_block_record(tmp_path_factory, roster, keys, blocks):
    """Each tx goes straight to ``pending``, past the live checks, so every
    value reaches the writer as it was built."""
    ledger = Ledger(roster, keys)
    for height, txs in enumerate(blocks, start=1):
        ledger.pending.extend(txs)
        ledger.seal_block(height)
    path = tmp_path_factory.mktemp("saved") / "chain.jsonl"
    ledger.save_jsonl(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [json.dumps(b.to_record(), separators=(",", ":")) for b in ledger.chain] + [""]


@given(json_ints, st.binary(max_size=300), st.binary(max_size=300), json_texts, json_ints)
def test_block_digest_is_the_digest_of_the_header_list(height, prev_hash, tx_root, validator, sealed_at):
    """A block hash is the SHA-256 of its header, the fields its line starts with."""
    header = {"height": height, "prev_hash": prev_hash.hex(), "tx_root": tx_root.hex(),
              "validator": validator, "sealed_at": sealed_at}
    assert block_digest(height, prev_hash, tx_root, validator, sealed_at) == sha256(dumps(header))


def agreement_id(charging) -> bytes:
    return tx_digest(0, "H", AgreementRegistration("H", "V", ("H",), charging))


def test_encoding_is_stable_and_type_tagged():
    assert agreement_id({"a": 5}) == agreement_id({"a": 5})
    assert agreement_id({"a": 5}) != agreement_id({"a": "5"})
    assert agreement_id({"a": True}) != agreement_id({"a": 1})
    assert agreement_id({"a": [1, 2]}) != agreement_id({"a": [[1], 2]})
    assert agreement_id({"a": 1, "b": 2}) == agreement_id({"b": 2, "a": 1})
    assert tx_digest(0, "H", Issue("H", "w", 5)) != tx_digest(0, "H", Issue("H", "w", "5"))


def test_encoding_rejects_non_string_dict_keys():
    with pytest.raises(TypeError):
        agreement_id({1: "x"})
    with pytest.raises(TypeError):
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
    st.none() | st.booleans() | st.integers() | st.text() | st.floats(allow_nan=False),
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
    if not leaves:
        return b"\x00" * 32
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
    assert codec.merkle_root([]) == b"\x00" * 32
    assert codec.merkle_root(leaves[:1]) == leaves[0]
    assert codec.merkle_root(leaves[:2]) == hashlib.sha256(leaves[0] + leaves[1]).digest()
    for n in range(9):
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
