"""Canonical binary encoding, hashing and the default signature scheme.

Every value that is hashed or signed anywhere in the simulator goes through
``encode`` so that identical inputs produce byte-identical digests across
runs and platforms.  The encoding is length-prefixed and type-tagged;
dict keys are emitted in sorted order.

A value's rule is the first that ``isinstance`` picks in the order None,
True, False, int, float, str, bytes/bytearray, list/tuple, dict, and each
rule's bytes are built in one place; lists, tuples and dicts encode each
item by the same rules.  So an ``IntEnum`` member encodes as an int and a
``dict`` subclass as a dict.  Any other value raises ``TypeError``.

The hot paths do not go through that general encoder.  A
``RecordLayout`` encodes the fixed part of a tagged record once, so records
of one tag and key set, such as the transactions of one payload kind, are
hashed without re-encoding it or re-sorting its keys, and
``append_int_pair`` finishes the bytes of a balance proof, which are MACed
as they are, from its channel's encoded prefix.  Both emit exact ints (and
``RecordLayout`` exact strs) inline, with headers from the same tables;
``append_int_pair`` takes the whole encoding of an int in [0, 1024) from
the table ``_INT_ENC``.
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

# Per tag, the length-prefix headers (tag plus big-endian u32) for lengths
# below _SHORT.
_SHORT = 256
_HEADS = {tag: tuple(tag + _U32.pack(n) for n in range(_SHORT)) for tag in (b"s", b"i", b"l", b"d")}
_STR_HEAD, _INT_HEAD = _HEADS[b"s"], _HEADS[b"i"]
# The whole encoding (header and digits) of each int below _SMALL_INT: a
# balance proof's seq and cumulative almost always are.
_SMALL_INT = 1024
_INT_ENC = tuple(_INT_HEAD[len(raw)] + raw for raw in (b"%d" % i for i in range(_SMALL_INT)))


def _header(tag: bytes, n: int) -> bytes:
    """``tag`` plus ``n`` as a big-endian u32, from the tables when short."""
    return _HEADS[tag][n] if n < _SHORT else tag + _U32.pack(n)


def _enc(value, out: list[bytes]) -> None:
    if value is None:
        out.append(b"n")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        raw = b"%d" % value
        out.append(_header(b"i", len(raw)) + raw)
    elif isinstance(value, float):
        out.append(b"f" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode()
        out.append(_header(b"s", len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b" + _U32.pack(len(value)) + bytes(value))
    elif isinstance(value, (list, tuple)):
        out.append(_header(b"l", len(value)))
        for item in value:
            _enc(item, out)
    elif isinstance(value, dict):
        keys = sorted(value)
        out.append(_header(b"d", len(keys)))
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"canonical dict keys must be str, got {type(key)!r}")
            _enc(key, out)
            _enc(value[key], out)
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
        self._list_head = _header(b"l", lead + 1)
        self._head = _header(b"l", 2) + encode(tag) + _header(b"d", len(keys))
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


def list_prefix(length: int, head: list) -> bytes:
    """The canonical encoding of a ``length``-item list up to the end of
    ``head``, its first items.  ``append_int_pair`` finishes it."""
    out = [_header(b"l", length)]
    for item in head:
        _enc(item, out)
    return b"".join(out)


def append_int_pair(prefix: bytes, a: int, b: int) -> bytes:
    """``encode(head + [a, b])`` from ``prefix = list_prefix(len(head) + 2, head)``.

    Two exact ints in [0, 1024) come whole from the table ``_INT_ENC``, and
    other exact ints shorter than 256 digits take their headers from the
    header table; any other value follows the rules of ``encode``.
    """
    if type(a) is int and type(b) is int:
        if 0 <= a < _SMALL_INT and 0 <= b < _SMALL_INT:
            return prefix + _INT_ENC[a] + _INT_ENC[b]
        ra = b"%d" % a
        rb = b"%d" % b
        if len(ra) < _SHORT and len(rb) < _SHORT:
            return prefix + _INT_HEAD[len(ra)] + ra + _INT_HEAD[len(rb)] + rb
    out = [prefix]
    _enc(a, out)
    _enc(b, out)
    return b"".join(out)


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
