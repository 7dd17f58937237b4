"""Canonical encoding, merkle and signature primitives."""

import hashlib
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dice import codec


plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.binary(max_size=64)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


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


def test_keyed_mac_signer_roundtrip():
    signer = codec.KeyedMacSigner({"alice": b"s1", "bob": b"s2"})
    sig = signer.sign("alice", b"msg")
    assert signer.verify("alice", b"msg", sig)
    assert not signer.verify("bob", b"msg", sig)
    assert not signer.verify("alice", b"other", sig)
    assert not signer.verify("carol", b"msg", sig)
    assert signer.knows("alice") and not signer.knows("carol")
    with pytest.raises(KeyError):
        signer.sign("carol", b"msg")


def test_derived_keys_and_seeds_are_stable():
    assert codec.derive_key(1, "a") == codec.derive_key(1, "a")
    assert codec.derive_key(1, "a") != codec.derive_key(2, "a")
    assert codec.derive_seed(1, "x") == codec.derive_seed(1, "x")
    assert codec.derive_seed(1, "x") != codec.derive_seed(1, "y")
