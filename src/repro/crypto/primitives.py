"""Byte-level helpers shared by the encryption schemes."""

from __future__ import annotations

import hmac
import os

from repro.errors import CryptoError


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise CryptoError(
            "xor_bytes requires equal lengths, got %d and %d" % (len(a), len(b))
        )
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking where they differ."""
    return hmac.compare_digest(a, b)


def random_bytes(n: int) -> bytes:
    """Return ``n`` cryptographically random bytes."""
    if n < 0:
        raise CryptoError("cannot draw a negative number of random bytes")
    return os.urandom(n)


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` using PKCS#7."""
    if not 1 <= block_size <= 255:
        raise CryptoError("block size must be in [1, 255]")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Remove PKCS#7 padding, validating its structure."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("padded data length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise CryptoError("invalid padding length byte")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("invalid padding bytes")
    return data[:-pad_len]


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer big-endian.

    When ``length`` is omitted the minimal length is used (at least one byte).
    """
    if value < 0:
        raise CryptoError("cannot encode a negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string as a non-negative integer."""
    return int.from_bytes(data, "big")


def split_blocks(data: bytes, block_size: int) -> list[bytes]:
    """Split ``data`` into consecutive ``block_size``-byte blocks."""
    if len(data) % block_size != 0:
        raise CryptoError("data length is not a multiple of the block size")
    return [data[i : i + block_size] for i in range(0, len(data), block_size)]
