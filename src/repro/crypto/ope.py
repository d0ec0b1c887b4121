"""OPE: Boldyreva order-preserving encryption.

If ``x < y`` then ``OPE_K(x) < OPE_K(y)``, which lets the DBMS server run
range predicates, ``ORDER BY``, ``MIN``/``MAX`` and ``SORT`` directly on
ciphertexts.  The scheme maps a plaintext domain of ``plaintext_bits`` bits
into a larger ciphertext range of ``ciphertext_bits`` bits by lazily sampling
a random order-preserving function: the ciphertext range is split at its
midpoint, a hypergeometric draw decides how many plaintexts map below the
midpoint, and the recursion descends into the half containing the value.
All random draws come from a PRF keyed by the column key and the recursion
node, so the function is deterministic.

The paper reports 25 ms per encryption for the direct implementation and 7 ms
after adding a search-tree cache for batch encryption.  This class keeps a
value memo only (plaintext -> ciphertext and back); it caches no tree nodes,
so a value it has not seen walks the whole tree, root to leaf.
"""

from __future__ import annotations

from collections.abc import Iterator
from hmac import digest as hmac_digest

from repro.crypto.hgd import hypergeometric_sample
from repro.crypto.prf import derive_key
from repro.errors import CryptoError

DEFAULT_PLAINTEXT_BITS = 32
DEFAULT_CIPHERTEXT_BITS = 64

_TWO53 = 1 << 53
# ``c * 2**-53`` for an integer ``c < 2**53`` is exact, like ``c / 2**53``.
_TO_UNIT_INTERVAL = (2.0**-53).__mul__


def _uniform_ints(key: bytes, label: bytes, upper: int) -> Iterator[int]:
    """Yield uniform integers in ``[0, upper)`` drawn from ``(key, label)``:
    rejection sampling over HMAC-SHA256 blocks in counter mode, the coins of
    the stream object the first OPE drew from (kept as ``DeterministicStream``
    in ``tests/crypto/ope_reference.py``, which checks that they agree).
    """
    n_bits = upper.bit_length()
    n_bytes = (n_bits + 7) // 8
    shift = n_bytes * 8 - n_bits
    buffer = b""
    counter = 0
    while True:
        while len(buffer) < n_bytes:
            buffer += hmac_digest(key, label + counter.to_bytes(8, "big"), "sha256")
            counter += 1
        candidate = int.from_bytes(buffer[:n_bytes], "big") >> shift
        buffer = buffer[n_bytes:]
        if candidate < upper:
            yield candidate


class OPE:
    """Order-preserving encryption under a fixed column key."""

    def __init__(
        self,
        key: bytes,
        plaintext_bits: int = DEFAULT_PLAINTEXT_BITS,
        ciphertext_bits: int = DEFAULT_CIPHERTEXT_BITS,
        cache: bool = True,
    ):
        if not key:
            raise CryptoError("OPE key must be non-empty")
        if ciphertext_bits <= plaintext_bits:
            raise CryptoError("ciphertext space must be larger than plaintext space")
        self.key = key
        self.plaintext_bits = plaintext_bits
        self.ciphertext_bits = ciphertext_bits
        self.domain_size = 1 << plaintext_bits
        self.range_size = 1 << ciphertext_bits
        self._coins_key = derive_key(key, "ope-coins", length=32)
        self._cache_enabled = cache
        self._encrypt_cache: dict[int, int] = {}
        self._decrypt_cache: dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- public API -------------------------------------------------------
    def encrypt(self, plaintext: int) -> int:
        """Encrypt an integer in ``[0, 2^plaintext_bits)``."""
        if not 0 <= plaintext < self.domain_size:
            raise CryptoError(
                "OPE plaintext %d outside [0, %d)" % (plaintext, self.domain_size)
            )
        if self._cache_enabled:
            if plaintext in self._encrypt_cache:
                self.cache_hits += 1
                return self._encrypt_cache[plaintext]
            self.cache_misses += 1
        ciphertext = self._walk(plaintext, by_plaintext=True)
        if self._cache_enabled:
            self._encrypt_cache[plaintext] = ciphertext
            self._decrypt_cache[ciphertext] = plaintext
        return ciphertext

    def decrypt(self, ciphertext: int) -> int:
        """Invert :meth:`encrypt`."""
        if not 0 <= ciphertext < self.range_size:
            raise CryptoError(
                "OPE ciphertext %d outside [0, %d)" % (ciphertext, self.range_size)
            )
        if self._cache_enabled:
            if ciphertext in self._decrypt_cache:
                self.cache_hits += 1
                return self._decrypt_cache[ciphertext]
            self.cache_misses += 1
        plaintext = self._walk(ciphertext, by_plaintext=False)
        if self._cache_enabled:
            self._encrypt_cache[plaintext] = ciphertext
            self._decrypt_cache[ciphertext] = plaintext
        return plaintext

    def encrypt_batch(self, plaintexts: list[int]) -> list[int]:
        """Encrypt many values, exploiting the cache (the paper's batch mode)."""
        return self.encrypt_many(plaintexts)

    def encrypt_many(self, plaintexts: list[int]) -> list[int]:
        """Encrypt a column of values, computing each distinct value once.

        With the instance cache enabled the memo persists across batches;
        otherwise deduplication is local to this call.
        """
        if self._cache_enabled:
            return [self.encrypt(p) for p in plaintexts]
        local: dict[int, int] = {}
        out = []
        for plaintext in plaintexts:
            cached = local.get(plaintext)
            if cached is None:
                cached = local[plaintext] = self.encrypt(plaintext)
            out.append(cached)
        return out

    def decrypt_many(self, ciphertexts: list[int]) -> list[int]:
        """Decrypt a column of values, computing each distinct value once."""
        if self._cache_enabled:
            return [self.decrypt(c) for c in ciphertexts]
        local: dict[int, int] = {}
        out = []
        for ciphertext in ciphertexts:
            cached = local.get(ciphertext)
            if cached is None:
                cached = local[ciphertext] = self.decrypt(ciphertext)
            out.append(cached)
        return out

    @property
    def cache_size(self) -> int:
        """Number of cached plaintext/ciphertext pairs."""
        return len(self._encrypt_cache)

    def cache_objects(self) -> tuple:
        """The live memo containers, walked by the cache's byte accounting."""
        return (self._encrypt_cache, self._decrypt_cache)

    def clear_cache(self) -> None:
        """Drop all cached encryptions."""
        self._encrypt_cache.clear()
        self._decrypt_cache.clear()

    def reset_counters(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0

    # -- tree walk --------------------------------------------------------
    def _walk(self, value: int, by_plaintext: bool) -> int:
        """Descend the lazily sampled function from the root to one leaf.

        ``by_plaintext`` follows plaintext ``value`` and returns its
        ciphertext; otherwise follows ciphertext ``value`` and returns its
        plaintext, or raises if ``value`` is not in the function's image.
        A node is its domain ``[d_lo, d_hi]`` and its range ``[r_lo, r_hi]``.
        """
        key = self._coins_key
        d_lo, d_hi, r_lo, r_hi = 0, self.domain_size - 1, 0, self.range_size - 1
        while d_lo != d_hi:
            domain_size = d_hi - d_lo + 1
            range_size = r_hi - r_lo + 1
            lower_range = range_size // 2
            mid_r = r_lo + lower_range - 1
            label = b"node:%d:%d:%d:%d" % (d_lo, d_hi, r_lo, r_hi)
            coins = map(_TO_UNIT_INTERVAL, _uniform_ints(key, label, _TWO53))
            # How many of the node's plaintexts map at or below ``mid_r``.
            below = hypergeometric_sample(
                lower_range, domain_size, range_size - domain_size, coins
            )
            if by_plaintext:
                go_low = value < d_lo + below
            else:
                go_low = value <= mid_r
                if below == (0 if go_low else domain_size):
                    raise CryptoError("ciphertext is not a valid OPE encryption")
            if go_low:
                d_hi = d_lo + below - 1
                r_hi = mid_r
            else:
                d_lo += below
                r_lo = mid_r + 1
        label = b"leaf:%d:%d:%d:%d" % (d_lo, d_hi, r_lo, r_hi)
        ciphertext = r_lo + next(_uniform_ints(key, label, r_hi - r_lo + 1))
        if by_plaintext:
            return ciphertext
        if ciphertext != value:
            raise CryptoError("ciphertext is not a valid OPE encryption")
        return d_lo
