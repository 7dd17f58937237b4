"""Hashing and the default signature scheme.

There is no binary encoding: every hash and MAC covers JSON text, written
by the module that writes it.  ``ledger`` states the texts a tx id, a block
hash and genesis's ``tx_root`` cover, each the text its saved line holds; a
sealed block's ``tx_root`` is ``merkle_root`` of its tx ids;
``channel.proof_format`` states the text a balance proof's MAC covers.

Signatures (``KeyedMacSigner``) are keyed BLAKE2s-256 MACs: one state per
actor keyed with its secret, a key over 32 bytes first hashed to 32 bytes
with unkeyed BLAKE2s, and each MAC a copy of that state fed the message,
taken by ``sign`` and ``verify`` themselves.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Optional

ZERO_DIGEST = bytes(32)


def digest(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def merkle_root(leaves: list[bytes]) -> bytes:
    """Binary Merkle root over one or more 32-byte leaves; odd leaf promoted unchanged."""
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

    ``_keyed`` keys an actor's state on its first MAC and keeps it; past
    that, ``sign`` and ``verify`` each take a MAC themselves, with no call
    of another Python function: they copy the kept state, feed it the
    message and take the digest.
    """

    def __init__(self, keys: dict[str, bytes]):
        self._keys = dict(keys)
        # Per actor, the BLAKE2s state keyed with its secret, built on first
        # use; every signature starts from a copy of it.
        self._states: dict[str, hashlib.blake2s] = {}

    def _keyed(self, actor: str) -> Optional[hashlib.blake2s]:
        """The BLAKE2s state keyed with ``actor``'s secret, built and kept on
        the first MAC under it; None if it has no key."""
        key = self._keys.get(actor)
        if key is None:
            return None
        if len(key) > _MAX_KEY:
            key = hashlib.blake2s(key).digest()
        state = self._states[actor] = hashlib.blake2s(key=key)
        return state

    def sign(self, actor: str, message: bytes) -> bytes:
        """Keyed BLAKE2s-256 of ``message`` under ``actor``'s key: a copy of its
        keyed state fed the message."""
        state = self._states.get(actor) or self._keyed(actor)
        if state is None:
            raise KeyError(f"no key registered for actor {actor!r}")
        mac = state.copy()
        mac.update(message)
        return mac.digest()

    def verify(self, actor: str, message: bytes, signature: bytes) -> bool:
        """Whether ``signature`` is ``sign(actor, message)``; False for an actor with no key."""
        state = self._states.get(actor) or self._keyed(actor)
        if state is None:
            return False
        mac = state.copy()
        mac.update(message)
        return hmac.compare_digest(mac.digest(), signature)

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
