"""Canonical encoding, the ledger's JSON writer, merkle and signature primitives."""

import enum
import hashlib
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dice import codec
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
    payload_canonical,
    tx_digest,
)

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


def reference_encode(value) -> bytes:
    """The recursive encoder ``codec.encode`` must match byte for byte: one
    call per value, the rule picked by isinstance."""
    out = []
    _reference_enc(value, out)
    return b"".join(out)


def _reference_enc(value, out):
    if value is None:
        out.append(b"n")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out.append(b"i" + _U32.pack(len(raw)) + raw)
    elif isinstance(value, float):
        out.append(b"f" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"s" + _U32.pack(len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b" + _U32.pack(len(value)) + bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(b"l" + _U32.pack(len(value)))
        for item in value:
            _reference_enc(item, out)
    elif isinstance(value, dict):
        keys = sorted(value)
        out.append(b"d" + _U32.pack(len(keys)))
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"canonical dict keys must be str, got {type(key)!r}")
            _reference_enc(key, out)
            _reference_enc(value[key], out)
    else:
        raise TypeError(f"value of type {type(value)!r} has no canonical encoding")


plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.binary(max_size=64)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 20


class Name(str):
    pass


class Fields(dict):
    pass


class Blob(bytes):
    pass


# Everything the codec accepts: tuples, bytearrays, -0.0, empty containers at
# any depth, and subclasses of int, str, bytes and dict.
codec_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.binary(max_size=64) | st.binary(max_size=8).map(bytearray)
    | st.floats(allow_nan=False) | st.just(-0.0)
    | st.just([]) | st.just(()) | st.just({})
    | st.sampled_from(Colour) | st.text(max_size=8).map(Name)
    | st.binary(max_size=8).map(Blob),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.dictionaries(st.text(max_size=8).map(Name), children, max_size=4).map(Fields),
    max_leaves=12,
)


@given(codec_values)
def test_encode_matches_reference(value):
    assert codec.encode(value) == reference_encode(value)


@pytest.mark.parametrize("value", [
    Colour.BLUE,
    [Colour.RED, {"c": Colour.BLUE}],
    Name("ch-0000001"),
    {Name("k"): Name("v"), "j": [Name("")]},
    Fields(b=2, a=Fields(z=[1])),
    [Fields(), Name("x"), (Colour.RED,)],
    "y" * 255,                       # the longest header in the tables
    "x" * 300,                       # lengths past the header tables
    10 ** 300,
    -(10 ** 255),
    list(range(300)),
    {f"k{i}": i for i in range(300)},
    ["é" * 200, ("ü" * 128, b"\x00" * 300)],
    [b"", b"\x00" * 300, Blob(b"ab"), bytearray(b"cd"), (Blob(),)],   # list items inline
])
def test_encode_matches_reference_on_subclasses_and_long_values(value):
    assert codec.encode(value) == reference_encode(value)


@pytest.mark.parametrize("value", [
    {1: "x"}, {"a": 1, 2: "y"}, [{1: "x"}], {"a": {2: 0}},
    {1, 2}, ["ok", {3}], object(), {"a": object()},
])
def test_encode_and_reference_reject_the_same_values(value):
    with pytest.raises(TypeError) as ours:
        codec.encode(value)
    with pytest.raises(TypeError) as theirs:
        reference_encode(value)
    assert str(ours.value) == str(theirs.value)


def test_int_table_holds_each_canonical_encoding():
    assert len(codec._INT_ENC) == 1024
    for i, encoded in enumerate(codec._INT_ENC):
        assert encoded == codec.encode(i) == reference_encode(i), i


# Around the ends of the table and of the header table, the bools and an
# ``IntEnum`` member, which encode by their own rules.
PAIR_EDGES = [-1, 0, 1, 1023, 1024, 10 ** 255, True, False, Colour.BLUE]


@pytest.mark.parametrize("channel_id", ["ch-0000001", "é" * 200])
def test_append_int_pair_at_the_table_edges(channel_id):
    prefix = codec.list_prefix(4, ["proof", channel_id])
    for a in PAIR_EDGES:
        for b in PAIR_EDGES:
            value = ["proof", channel_id, a, b]
            assert codec.append_int_pair(prefix, a, b) == codec.encode(value) == reference_encode(value), value


def test_golden_digests_pin_the_format():
    assert codec.digest(["proof", "ch-0000007", 3, 3]).hex() == (
        "a18430a362c65c9a0ce8b0323ad1f70e4be3c64ebcfdfb6322fa2d8cbdcfc71e")
    opened = ChannelOpen("ch-0000007", "w-0000003", "V", 25, bytes(range(32)), 604_900)
    value = [100, "alice", payload_canonical(opened)]
    golden = "a0061011eec92694b0dfd3fd29c40785035f467a60ab85399a4fe86fa9e62548"
    assert codec.digest(value).hex() == golden
    assert tx_digest(100, "alice", opened).hex() == golden


# Payload field values: what the codec inlines (exact str and int, short or
# past the header tables, non-ASCII) and what it must not (bool, float,
# subclasses of int and str).
texts = (st.text(max_size=8) | st.text(min_size=256, max_size=300)
         | st.text(alphabet="é€😀", min_size=70, max_size=90) | st.text(max_size=8).map(Name))
ints = (st.integers() | st.integers(min_value=10 ** 256, max_value=10 ** 300)
        | st.integers(min_value=-(10 ** 300), max_value=-(10 ** 256)) | st.sampled_from(Colour))
scalars = texts | ints | st.booleans() | st.floats(allow_nan=False)
names = st.lists(texts, max_size=4).map(tuple)
charging = st.dictionaries(st.text(max_size=8), codec_values, max_size=4)

PAYLOAD_FIELDS = {
    Issue: (scalars, scalars, scalars),
    AgreementRegistration: (scalars, scalars, names, charging),
    AttachCheck: (scalars, scalars, scalars, scalars),
    ChannelOpen: (scalars, scalars, scalars, scalars, st.binary(max_size=40), scalars),
    ChannelClose: (scalars, scalars, scalars, scalars),
    Redeem: (scalars, scalars, names, scalars),
}


class RenamedClose(ChannelClose):
    kind = "channel_close_v2"


PAYLOAD_CLASSES = [*PAYLOAD_FIELDS, RenamedClose,
                   *(type(f"Sub{cls.__name__}", (cls,), {}) for cls in PAYLOAD_FIELDS)]
payloads = st.sampled_from(PAYLOAD_CLASSES).flatmap(lambda cls: st.builds(
    cls, *next(fields for base, fields in PAYLOAD_FIELDS.items() if issubclass(cls, base))))


@given(scalars, scalars, payloads)
@example(0, "A", ChannelOpen("ch", "w", "V", 1, bytes(range(200)), 2))  # 400 hex chars: past the header tables
def test_tx_digest_is_the_digest_of_the_canonical_value(timestamp, signer, payload):
    value = [timestamp, signer, payload_canonical(payload)]
    assert tx_digest(timestamp, signer, payload) == codec.digest(value) \
        == hashlib.sha256(reference_encode(value)).digest()


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
json_payloads = st.sampled_from(PAYLOAD_CLASSES).flatmap(lambda cls: st.builds(
    cls, *next(fields for base, fields in JSON_FIELDS.items() if issubclass(cls, base))))
json_txs = st.builds(Transaction, st.binary(max_size=64), json_int, json_str, json_payloads, st.binary(max_size=64))


# Genesis digests its roster and actor names, so they encode as UTF-8: no lone surrogates.
actor_names = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀 a'), max_size=8)


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


# Heights and times up to and past 255 digits, signs included.
block_ints = ints | st.sampled_from([10 ** 254, 10 ** 255, -(10 ** 254), -(10 ** 255)])


@given(block_ints, st.binary(max_size=300), st.binary(max_size=300), texts, block_ints)
def test_block_digest_is_the_digest_of_the_header_list(height, prev_hash, tx_root, validator, sealed_at):
    value = [height, prev_hash, tx_root, validator, sealed_at]
    assert block_digest(*value) == codec.digest(value) == hashlib.sha256(reference_encode(value)).digest()


def test_encoding_is_stable_and_type_tagged():
    assert codec.encode(5) == codec.encode(5)
    assert codec.encode(5) != codec.encode("5")
    assert codec.encode(True) != codec.encode(1)
    assert codec.encode([1, 2]) != codec.encode([[1], 2])
    assert codec.encode({"a": 1, "b": 2}) == codec.encode({"b": 2, "a": 1})


def test_encoding_rejects_non_string_dict_keys():
    with pytest.raises(TypeError):
        codec.encode({1: "x"})


def tagged(value):
    """``value`` with every scalar paired with its type, and floats compared
    by their packed bytes: equal exactly when the codec must encode equally.

    Plain ``==`` is not that: ``False == 0``, ``1 == 1.0`` and
    ``0.0 == -0.0``, yet the codec rightly tells each pair apart.
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
        assert codec.encode(a) != codec.encode(b)


@given(plain_values, plain_values)
def test_distinct_values_encode_distinctly(a, b):
    assert (codec.encode(a) == codec.encode(b)) == (tagged(a) == tagged(b))


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
    a, b = codec.sha256(b"a"), codec.sha256(b"b")
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
