"""DET: deterministic encryption enabling equality checks.

DET reveals only which values repeat within a column.  The paper builds it
from a pseudo-random permutation: a 64-bit block cipher for integers, and
AES in a CMC-like mode with a zero IV for longer byte strings (so that
equality of long prefixes is not leaked, unlike plain CBC).

Because the scheme is deterministic, ciphertexts of repeated values are
reusable -- the §3.5.2 "ciphertext caching" optimisation.  The proxy applies
it one level up: :class:`~repro.core.encryptor.Encryptor` memoises the whole
composed Eq onion (JOIN-ADJ hash || DET_join, then DET) per column in the
:class:`~repro.core.cache.CryptoCache`, for single statements and batches
alike, and drops those memos when a JOIN-ADJ re-keying changes what the
column stores.  ``encrypt_bytes``/``decrypt_bytes`` here are the memo-free
single-value primitives; the ``*_many`` methods are what that path calls on
its misses (all of them, under the Figure 12 Proxy* ablation): they compute
each distinct value once, push the whole column of distinct values through
:mod:`repro.crypto.modes` together -- CMC decryption is two batched AES calls
per column, CMC encryption advances every value's chain in lockstep -- and
offer a per-key memo to callers that use a ``DET`` object on its own.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from repro.crypto import modes
from repro.crypto.aes import AES
from repro.crypto.feistel import FeistelPRP
from repro.crypto.rnd import _fit_aes_key
from repro.errors import CryptoError


def distinct_misses(memo: dict, cells: Sequence[Optional[bytes]]) -> list[bytes]:
    """The distinct non-NULL ``cells`` that ``memo`` does not hold, in order."""
    return list(dict.fromkeys(c for c in cells if c is not None and c not in memo))


class DET:
    """Deterministic encryption under a fixed column key."""

    def __init__(self, key: bytes, cache: bool = False):
        if not key:
            raise CryptoError("DET key must be non-empty")
        self.key = key
        self._cache_enabled = cache
        self._encrypt_cache: dict[bytes, bytes] = {}
        self._decrypt_cache: dict[bytes, bytes] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # The byte-string and the integer cipher are each built when first needed:
    # the proxy's DET objects (Eq layers, SEARCH cores) only ever use AES.
    @cached_property
    def _aes(self) -> AES:
        return AES(_fit_aes_key(self.key))

    @cached_property
    def _prp64(self) -> FeistelPRP:
        return FeistelPRP(self.key, block_size=8)

    # -- byte strings -----------------------------------------------------
    def encrypt_bytes(self, plaintext: bytes) -> bytes:
        """Deterministically encrypt an arbitrary byte string (memo-free)."""
        return modes.cmc_encrypt(self._aes, plaintext)

    def decrypt_bytes(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt_bytes`."""
        return modes.cmc_decrypt(self._aes, ciphertext)

    # -- memoised batch API (column-at-a-time paths) ----------------------
    def encrypt_bytes_many(self, plaintexts: Sequence[Optional[bytes]]) -> list[Optional[bytes]]:
        """Encrypt a column of byte strings, computing each distinct value once.

        The memo persists across batches when the instance was created with
        ``cache=True``; otherwise deduplication is local to this call.  The
        memo maps this key's input bytes to output bytes, so (unlike the
        proxy's composed Eq-onion memos, which embed JOIN-ADJ components) it
        never needs invalidating for the lifetime of the key.
        """
        return self._through_memo(
            plaintexts, self._encrypt_cache, self._decrypt_cache, modes.cmc_encrypt_many
        )

    def decrypt_bytes_many(self, ciphertexts: Sequence[Optional[bytes]]) -> list[Optional[bytes]]:
        """Invert :meth:`encrypt_bytes_many` (deduplicating equal ciphertexts)."""
        return self._through_memo(
            ciphertexts, self._decrypt_cache, self._encrypt_cache, modes.cmc_decrypt_many
        )

    def _through_memo(self, cells, memo: dict, inverse_memo: dict, transform_many) -> list:
        """Serve ``cells`` from ``memo``; the misses go through CMC as one column.

        Nothing is memoised unless the whole column of misses succeeded.
        """
        if not self._cache_enabled:
            memo = {}
        missing = distinct_misses(memo, cells)
        if missing:
            computed = transform_many(self._aes, missing)
            memo.update(zip(missing, computed))
            if self._cache_enabled:
                inverse_memo.update(zip(computed, missing))
        self.cache_misses += len(missing)
        self.cache_hits += len(cells) - cells.count(None) - len(missing)
        return [None if cell is None else memo[cell] for cell in cells]

    @property
    def cache_size(self) -> int:
        """Number of memoised plaintext/ciphertext pairs."""
        return len(self._encrypt_cache)

    def clear_cache(self) -> None:
        """Drop all memoised ciphertexts (e.g. after a key adjustment)."""
        self._encrypt_cache.clear()
        self._decrypt_cache.clear()

    def reset_counters(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0

    # -- integers ---------------------------------------------------------
    def encrypt_int(self, value: int) -> int:
        """Deterministically encrypt a 64-bit unsigned integer (PRP)."""
        if not 0 <= value < (1 << 64):
            raise CryptoError("DET integer encryption expects a 64-bit value")
        return self._prp64.encrypt_int(value)

    def decrypt_int(self, ciphertext: int) -> int:
        """Invert :meth:`encrypt_int`."""
        if not 0 <= ciphertext < (1 << 64):
            raise CryptoError("DET integer decryption expects a 64-bit value")
        return self._prp64.decrypt_int(ciphertext)
