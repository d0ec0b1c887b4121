"""RND: probabilistic encryption, the strongest onion layer.

RND provides IND-CPA security: equal plaintexts map to different ciphertexts
with overwhelming probability, and no computation can be performed on the
ciphertext.  Following the paper we use a block cipher in CBC mode with a
random IV -- AES for byte strings and the 64-bit PRP (the Blowfish stand-in)
for integer values, to keep integer ciphertexts short.

The IV is stored alongside the ciphertext in a separate column on the DBMS
server (the ``C*-IV`` columns of Figure 3), which is why the API takes and
returns the IV explicitly instead of prepending it to the ciphertext.

The unit of work is a column: ``encrypt_bytes_many`` / ``decrypt_bytes_many``
hand every cell to :mod:`repro.crypto.modes` at once, where decryption is one
batched AES call for the whole column and encryption advances all the cells'
CBC chains in lockstep.  ``encrypt_bytes`` / ``decrypt_bytes`` are a column of
one.  Ciphertext bytes do not depend on how a value was batched.
"""

from __future__ import annotations

from functools import cached_property

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.crypto.feistel import FeistelPRP
from repro.crypto.primitives import random_bytes
from repro.errors import CryptoError


class RND:
    """Probabilistic encryption under a fixed column key."""

    IV_SIZE = 16

    def __init__(self, key: bytes):
        if not key:
            raise CryptoError("RND key must be non-empty")
        self.key = key

    # One RND object serves one onion: byte strings (Eq) or integers (Ord),
    # never both, so each cipher's key schedule is built when first needed.
    @cached_property
    def _aes(self) -> AES:
        return AES(_fit_aes_key(self.key))

    @cached_property
    def _prp64(self) -> FeistelPRP:
        return FeistelPRP(self.key, block_size=8)

    @staticmethod
    def generate_iv() -> bytes:
        """Draw a fresh random IV."""
        return random_bytes(RND.IV_SIZE)

    @staticmethod
    def generate_ivs(count: int) -> list[bytes]:
        """Draw ``count`` fresh IVs with a single entropy request."""
        pool = random_bytes(RND.IV_SIZE * count)
        return [pool[i : i + RND.IV_SIZE] for i in range(0, len(pool), RND.IV_SIZE)]

    # -- byte strings -----------------------------------------------------
    def encrypt_bytes(self, plaintext: bytes, iv: bytes) -> bytes:
        """Encrypt an arbitrary byte string under the given IV."""
        return self.encrypt_bytes_many([plaintext], [iv])[0]

    def decrypt_bytes(self, ciphertext: bytes, iv: bytes) -> bytes:
        """Invert :meth:`encrypt_bytes`."""
        return self.decrypt_bytes_many([ciphertext], [iv])[0]

    def encrypt_bytes_many(
        self, plaintexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        """Encrypt a column of byte strings, one fresh IV per value.

        ``None`` cells stay ``None`` (their IV is ignored).
        """
        return modes.cbc_encrypt_many(self._aes, ivs, plaintexts)

    def decrypt_bytes_many(
        self, ciphertexts: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        """Invert :meth:`encrypt_bytes_many`."""
        return modes.cbc_decrypt_many(self._aes, ivs, ciphertexts)

    # -- integers ---------------------------------------------------------
    def encrypt_int_many(self, values: list[int], ivs: list[bytes]) -> list[int]:
        """Encrypt a column of 64-bit integers, one fresh IV per value."""
        prp = self._prp64
        return [
            None if value is None
            else prp.encrypt_int(value ^ int.from_bytes(iv[:8], "big"))
            for value, iv in zip(values, ivs)
        ]

    def decrypt_int_many(self, ciphertexts: list[int], ivs: list[bytes]) -> list[int]:
        """Invert :meth:`encrypt_int_many`."""
        prp = self._prp64
        return [
            None if ciphertext is None
            else prp.decrypt_int(ciphertext) ^ int.from_bytes(iv[:8], "big")
            for ciphertext, iv in zip(ciphertexts, ivs)
        ]

    def encrypt_int(self, value: int, iv: bytes) -> int:
        """Encrypt a 64-bit unsigned integer; the ciphertext is also 64 bits.

        CBC over a single 8-byte block degenerates to ``PRP(value XOR iv)``,
        which is exactly the construction the paper uses for integer columns
        (Blowfish-CBC with a random IV) to avoid ciphertext expansion.
        """
        if not 0 <= value < (1 << 64):
            raise CryptoError("RND integer encryption expects a 64-bit value")
        iv64 = int.from_bytes(iv[:8], "big")
        return self._prp64.encrypt_int(value ^ iv64)

    def decrypt_int(self, ciphertext: int, iv: bytes) -> int:
        """Invert :meth:`encrypt_int`."""
        if not 0 <= ciphertext < (1 << 64):
            raise CryptoError("RND integer decryption expects a 64-bit value")
        iv64 = int.from_bytes(iv[:8], "big")
        return self._prp64.decrypt_int(ciphertext) ^ iv64


def _fit_aes_key(key: bytes) -> bytes:
    """Stretch or truncate an arbitrary key to a valid AES key length."""
    if len(key) in (16, 24, 32):
        return key
    from repro.crypto.prf import derive_key

    return derive_key(key, "aes-key-fit", length=16)
