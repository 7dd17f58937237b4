"""Canonical binary encoding, hashing and the default signature scheme.

Every value that is hashed or signed anywhere in the simulator goes through
``encode`` so that identical inputs produce byte-identical digests across
runs and platforms.  The encoding is length-prefixed and type-tagged;
dict keys are emitted in sorted order.

The encoder dispatches on the exact type of a value, testing str, int,
list/tuple and dict first: the shapes the simulator hashes.  A value whose
type is a subclass of a supported type follows the same rules: its rule is
the first that ``isinstance`` picks in the order None, True, False, int,
float, str, bytes/bytearray, list/tuple, dict.  So an ``IntEnum`` member
encodes as an int and a ``dict`` subclass as a dict.  Any other value
raises ``TypeError``.

A ``RecordLayout`` encodes the fixed part of a tagged record once, so
records of one tag and key set, such as the transactions of one payload
kind, are hashed without re-encoding it or re-sorting its keys.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Optional

DIGEST_SIZE = 32
ZERO_DIGEST = b"\x00" * DIGEST_SIZE

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

# Length-prefix headers (tag plus big-endian u32) for lengths below _SHORT.
_SHORT = 256


def _headers(tag: bytes) -> tuple[bytes, ...]:
    return tuple(tag + _U32.pack(n) for n in range(_SHORT))


_STR_HEAD, _INT_HEAD, _LIST_HEAD, _DICT_HEAD = map(_headers, (b"s", b"i", b"l", b"d"))


def _enc(value, out: list[bytes]) -> None:
    # Exact str and int items of a list or dict are emitted inline, without
    # a call each.  Any other value, a subclass included, reaches the
    # isinstance tests.  The supported types share no subclass except
    # bool < int, so testing the containers first still picks the rule of
    # the order the module docstring gives.
    t = type(value)
    if t is str:
        raw = value.encode()
        n = len(raw)
        out.append((_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
    elif t is int:
        raw = b"%d" % value
        n = len(raw)
        out.append((_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw)
    elif t is list or t is tuple or isinstance(value, (list, tuple)):
        n = len(value)
        out.append(_LIST_HEAD[n] if n < _SHORT else b"l" + _U32.pack(n))
        for item in value:
            t = type(item)
            if t is str:
                raw = item.encode()
                n = len(raw)
                out.append((_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
            elif t is int:
                raw = b"%d" % item
                n = len(raw)
                out.append((_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw)
            else:
                _enc(item, out)
    elif t is dict or isinstance(value, dict):
        keys = sorted(value)
        n = len(keys)
        out.append(_DICT_HEAD[n] if n < _SHORT else b"d" + _U32.pack(n))
        for key in keys:
            if type(key) is str:
                raw = key.encode()
                n = len(raw)
                out.append((_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
            elif isinstance(key, str):
                _enc(key, out)
            else:
                raise TypeError(f"canonical dict keys must be str, got {type(key)!r}")
            item = value[key]
            t = type(item)
            if t is str:
                raw = item.encode()
                n = len(raw)
                out.append((_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
            elif t is int:
                raw = b"%d" % item
                n = len(raw)
                out.append((_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw)
            else:
                _enc(item, out)
    elif value is None:
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
    else:
        raise TypeError(f"value of type {type(value)!r} has no canonical encoding")


def encode(value) -> bytes:
    """Canonical byte encoding of a plain-data value."""
    out: list[bytes] = []
    _enc(value, out)
    return b"".join(out)


def digest(value) -> bytes:
    """SHA-256 over the canonical encoding."""
    return hashlib.sha256(encode(value)).digest()


class RecordLayout:
    """The canonical encoding of ``[*lead, [tag, fields]]`` for ``lead`` values
    and for ``fields`` dicts with one key set, prepared once.

    The list headers, ``tag`` and the dict header are encoded here, and so is
    each key, in the order ``encode`` sorts them.  ``digest`` emits exact str
    and int values inline, with their headers from the tables, and any other
    value by the rules of ``encode``, so it equals
    ``digest([*lead, [tag, fields]])``.
    """

    __slots__ = ("_list_head", "_head", "_keys")

    def __init__(self, lead: int, tag: str, keys):
        keys = sorted(keys)
        if not all(isinstance(key, str) for key in keys):
            raise TypeError("canonical dict keys must be str")
        head = [b"l" + _U32.pack(2)]
        _enc(tag, head)
        head.append(b"d" + _U32.pack(len(keys)))
        self._list_head = b"l" + _U32.pack(lead + 1)
        self._head = b"".join(head)
        self._keys = tuple((key, encode(key)) for key in keys)

    def digest(self, lead: tuple, fields: dict) -> bytes:
        """SHA-256 of ``[*lead, [tag, fields]]``; ``fields`` has exactly the layout's keys."""
        out = [self._list_head]
        for value in lead:
            t = type(value)
            if t is str:
                raw = value.encode()
                n = len(raw)
                out.append((_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
            elif t is int:
                raw = b"%d" % value
                n = len(raw)
                out.append((_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw)
            else:
                _enc(value, out)
        out.append(self._head)
        for key, encoded_key in self._keys:
            value = fields[key]
            t = type(value)
            if t is str:
                raw = value.encode()
                n = len(raw)
                out.append(encoded_key + (_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw)
            elif t is int:
                raw = b"%d" % value
                n = len(raw)
                out.append(encoded_key + (_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw)
            else:
                out.append(encoded_key)
                _enc(value, out)
        return hashlib.sha256(b"".join(out)).digest()


def list_prefix_state(length: int, head: list):
    """SHA-256 state after absorbing the canonical encoding of a
    ``length``-item list up to the end of ``head``, its first items.

    Lists that share their head, such as the balance proofs of one channel,
    hash it once: ``digest_int_pair`` finishes a copy with the last two items.
    """
    out = [_LIST_HEAD[length] if length < _SHORT else b"l" + _U32.pack(length)]
    for item in head:
        _enc(item, out)
    return hashlib.sha256(b"".join(out))


def digest_int_pair(prefix, a: int, b: int) -> bytes:
    """``digest(head + [a, b])`` from ``prefix = list_prefix_state(len(head) + 2, head)``.

    ``prefix`` is copied, not changed.  Two exact ints shorter than 256
    digits take their headers from the table; any other value follows the
    rules of ``encode``.
    """
    h = prefix.copy()
    if type(a) is int and type(b) is int:
        ra = b"%d" % a
        rb = b"%d" % b
        if len(ra) < _SHORT and len(rb) < _SHORT:
            h.update(_INT_HEAD[len(ra)] + ra + _INT_HEAD[len(rb)] + rb)
            return h.digest()
    out: list[bytes] = []
    _enc(a, out)
    _enc(b, out)
    h.update(b"".join(out))
    return h.digest()


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def merkle_root(leaves: list[bytes]) -> bytes:
    """Binary Merkle root over 32-byte leaves; odd leaf promoted unchanged.

    An empty leaf list hashes to the all-zero digest.
    """
    if not leaves:
        return ZERO_DIGEST
    level = list(leaves)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(hashlib.sha256(level[i] + level[i + 1]).digest())
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


# HMAC (RFC 2104) over SHA-256: keys are padded to one block and XORed with
# these bytes, applied through bytes.translate.
_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class KeyedMacSigner:
    """Deterministic HMAC-SHA256 signatures from per-actor secrets.

    Stands in for real PKI at desk scale: a signature proves the signer
    holds the secret registered for it at genesis.
    """

    def __init__(self, keys: dict[str, bytes]):
        self._keys = dict(keys)
        # Per actor, the SHA-256 states after absorbing its key XOR ipad and
        # key XOR opad (RFC 2104), built on first use; every signature starts
        # from a copy of each.
        self._pads: dict[str, tuple] = {}

    def _mac(self, actor: str, message: bytes) -> Optional[bytes]:
        """HMAC-SHA256 of ``message`` under ``actor``'s key, or None if it has no key."""
        pads = self._pads.get(actor)
        if pads is None:
            key = self._keys.get(actor)
            if key is None:
                return None
            if len(key) > _SHA256_BLOCK:
                key = hashlib.sha256(key).digest()
            key = key.ljust(_SHA256_BLOCK, b"\0")
            pads = self._pads[actor] = (
                hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD)))
        inner = pads[0].copy()
        inner.update(message)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, actor: str, message: bytes) -> bytes:
        mac = self._mac(actor, message)
        if mac is None:
            raise KeyError(f"no key registered for actor {actor!r}")
        return mac

    def verify(self, actor: str, message: bytes, signature: bytes) -> bool:
        mac = self._mac(actor, message)
        return mac is not None and hmac.compare_digest(mac, signature)

    def knows(self, actor: str) -> bool:
        return actor in self._keys

    @property
    def keys(self) -> dict[str, bytes]:
        return dict(self._keys)


def derive_key(seed: int, actor: str) -> bytes:
    """Per-actor secret derived from the scenario seed."""
    return hashlib.sha256(f"dice-key:{seed}:{actor}".encode()).digest()


def derive_seed(seed: int, label: str) -> int:
    """Independent 63-bit child seed for a named random stream."""
    raw = hashlib.sha256(f"dice-seed:{seed}:{label}".encode()).digest()
    return int.from_bytes(raw[:8], "big") >> 1
