"""Pseudo-random functions and key derivation.

CryptDB derives every onion-layer key from the master key with a PRP/PRF
keyed by the tuple ``(table, column, onion, layer)`` (Equation (1) of the
paper).  We implement the PRF with HMAC-SHA256 and expand it in counter
mode for longer outputs.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.primitives import int_to_bytes
from repro.errors import CryptoError

DIGEST_SIZE = hashlib.sha256().digest_size


def prf(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 pseudo-random function."""
    if not key:
        raise CryptoError("PRF key must be non-empty")
    return hmac.new(key, message, hashlib.sha256).digest()


def prf_int(key: bytes, message: bytes, bits: int) -> int:
    """Return a pseudo-random integer of at most ``bits`` bits."""
    if bits <= 0:
        raise CryptoError("bits must be positive")
    n_bytes = (bits + 7) // 8
    stream = expand(key, message, n_bytes)
    value = int.from_bytes(stream, "big")
    return value >> (n_bytes * 8 - bits)


def expand(key: bytes, message: bytes, n_bytes: int) -> bytes:
    """Expand ``(key, message)`` into ``n_bytes`` of pseudo-random output.

    HMAC in counter mode: ``HMAC(key, message || counter)`` concatenated.
    """
    if n_bytes < 0:
        raise CryptoError("cannot expand to a negative length")
    output = bytearray()
    counter = 0
    while len(output) < n_bytes:
        output.extend(prf(key, message + int_to_bytes(counter, 4)))
        counter += 1
    return bytes(output[:n_bytes])


def derive_key(master: bytes, *labels: object, length: int = 16) -> bytes:
    """Derive a sub-key from a master key and a label tuple.

    This is the reproduction of Equation (1),
    ``K_{t,c,o,l} = PRP_MK(table t, column c, onion o, layer l)``: each label
    is length-prefixed so that distinct tuples can never collide, and the
    result is truncated/expanded to ``length`` bytes.
    """
    if length <= 0:
        raise CryptoError("derived key length must be positive")
    encoded = bytearray()
    for label in labels:
        part = str(label).encode("utf-8")
        encoded.extend(int_to_bytes(len(part), 4))
        encoded.extend(part)
    return expand(master, bytes(encoded), length)
