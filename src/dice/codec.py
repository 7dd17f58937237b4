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

The hot paths do not go through that general encoder.  ``encode`` emits
an exact str, int or bytes itself, its header from the tables, and hands
any other value to ``_enc``, which returns its bytes and sends list and
tuple items, dict keys and values, back through ``encode``.  A
transaction's digest (generated per payload class by ``ledger.payload``)
and a block's are fixed headers joined with ``encode`` of each field.
``append_int_pair`` finishes the bytes of a balance proof, which are MACed
as they are, from its channel's encoded prefix, and takes the whole
encoding of an int in [0, 1024) from the table ``_INT_ENC``.

Signatures (``KeyedMacSigner``) are keyed BLAKE2s-256 MACs: one state per
actor keyed with its secret, a key over 32 bytes first hashed to 32 bytes
with unkeyed BLAKE2s, and each MAC a copy of that state fed the message.
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
_HEADS = {tag: tuple(tag + _U32.pack(n) for n in range(_SHORT)) for tag in (b"s", b"i", b"b", b"l", b"d")}
_STR_HEAD, _INT_HEAD = _HEADS[b"s"], _HEADS[b"i"]
# The whole encoding (header and digits) of each int below _SMALL_INT: a
# balance proof's seq and cumulative almost always are.
_SMALL_INT = 1024
_INT_ENC = tuple(_INT_HEAD[len(raw)] + raw for raw in (b"%d" % i for i in range(_SMALL_INT)))


def _header(tag: bytes, n: int) -> bytes:
    """``tag`` plus ``n`` as a big-endian u32, from the tables when short."""
    return _HEADS[tag][n] if n < _SHORT else tag + _U32.pack(n)


def _enc(value) -> bytes:
    if value is None:
        return b"n"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        raw = b"%d" % value
        return _header(b"i", len(raw)) + raw
    if isinstance(value, float):
        return b"f" + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode()
        return _header(b"s", len(raw)) + raw
    if isinstance(value, (bytes, bytearray)):
        return _header(b"b", len(value)) + bytes(value)
    if isinstance(value, (list, tuple)):
        return _header(b"l", len(value)) + b"".join([encode(item) for item in value])
    if isinstance(value, dict):
        keys = sorted(value)
        out = [_header(b"d", len(keys))]
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"canonical dict keys must be str, got {type(key)!r}")
            out += (encode(key), encode(value[key]))
        return b"".join(out)
    raise TypeError(f"value of type {type(value)!r} has no canonical encoding")


def encode(value) -> bytes:
    """Canonical byte encoding of a plain-data value.  An exact str, int or
    bytes is emitted here, its header from the tables when short; any other
    value by ``_enc``."""
    t = type(value)
    if t is str:
        raw = value.encode()
        n = len(raw)
        return (_STR_HEAD[n] if n < _SHORT else b"s" + _U32.pack(n)) + raw
    if t is int:
        raw = b"%d" % value
        n = len(raw)
        return (_INT_HEAD[n] if n < _SHORT else b"i" + _U32.pack(n)) + raw
    if t is bytes:
        return _header(b"b", len(value)) + value
    return _enc(value)


def digest(value) -> bytes:
    """SHA-256 over the canonical encoding."""
    return hashlib.sha256(encode(value)).digest()


def list_prefix(length: int, head: list) -> bytes:
    """The canonical encoding of a ``length``-item list up to the end of
    ``head``, its first items.  ``append_int_pair`` finishes it."""
    return _header(b"l", length) + b"".join([encode(item) for item in head])


def append_int_pair(prefix: bytes, a: int, b: int) -> bytes:
    """``encode(head + [a, b])`` from ``prefix = list_prefix(len(head) + 2, head)``.
    Two exact ints in [0, 1024) come whole from the table ``_INT_ENC``; any
    other pair is emitted by ``encode``."""
    if type(a) is int and type(b) is int and 0 <= a < _SMALL_INT and 0 <= b < _SMALL_INT:
        return prefix + _INT_ENC[a] + _INT_ENC[b]
    return prefix + encode(a) + encode(b)


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


# The longest key BLAKE2s takes (32 bytes).
_MAX_KEY = hashlib.blake2s.MAX_KEY_SIZE


class KeyedMacSigner:
    """Deterministic keyed BLAKE2s-256 signatures from per-actor secrets.

    Stands in for real PKI at desk scale: a signature proves the signer
    holds the secret registered for it at genesis.  BLAKE2s keyed mode
    (RFC 7693) is a MAC by itself, with no HMAC double hash.  Its key is
    at most 32 bytes, so a longer key is first hashed to 32 bytes with
    unkeyed BLAKE2s, as RFC 2104 hashes an over-long HMAC key.
    """

    def __init__(self, keys: dict[str, bytes]):
        self._keys = dict(keys)
        # Per actor, the BLAKE2s state keyed with its secret, built on first
        # use; every signature starts from a copy of it.
        self._states: dict[str, hashlib.blake2s] = {}

    def _mac(self, actor: str, message: bytes) -> Optional[bytes]:
        """Keyed BLAKE2s-256 of ``message`` under ``actor``'s key, or None if it has no key."""
        state = self._states.get(actor)
        if state is None:
            key = self._keys.get(actor)
            if key is None:
                return None
            if len(key) > _MAX_KEY:
                key = hashlib.blake2s(key).digest()
            state = self._states[actor] = hashlib.blake2s(key=key)
        mac = state.copy()
        mac.update(message)
        return mac.digest()

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
