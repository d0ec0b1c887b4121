"""The parent commit's OPE, kept verbatim as the reference for bit-identity.

Everything below the markers is the code of ``repro.crypto.prf``'s
``DeterministicStream``, of ``repro.crypto.hgd`` and of ``repro.crypto.ope``
(``_Node``, ``_root``, ``_coins``, ``_split``, ``_encrypt_recursive``,
``_decrypt_recursive``) as it stood before the sampler learnt to stop early
and the two recursions became one walk: one ``DeterministicStream`` and one
frozen dataclass per node, and an exact sampler that visits its whole support
when the coin is above the mass it can reach.  ``test_ope.py`` and
``test_hgd.py`` assert that the current code returns the same values; do not
"fix" or speed up anything in here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.prf import derive_key, prf
from repro.crypto.primitives import int_to_bytes
from repro.errors import CryptoError


# -- verbatim: crypto/prf.py ---------------------------------------------------
class DeterministicStream:
    """A deterministic pseudo-random byte stream seeded by a key and label.

    Used by the OPE hypergeometric sampler, which must draw the *same* random
    coins every time it visits the same domain/range node so that encryption
    is a well-defined (and order-preserving) function.
    """

    def __init__(self, key: bytes, label: bytes):
        if not key:
            raise CryptoError("stream key must be non-empty")
        self._key = key
        self._label = label
        self._counter = 0
        self._buffer = b""

    def read(self, n_bytes: int) -> bytes:
        """Return the next ``n_bytes`` of the stream."""
        while len(self._buffer) < n_bytes:
            block = prf(self._key, self._label + int_to_bytes(self._counter, 8))
            self._buffer += block
            self._counter += 1
        out, self._buffer = self._buffer[:n_bytes], self._buffer[n_bytes:]
        return out

    def uniform_int(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)`` via rejection sampling."""
        if upper <= 0:
            raise CryptoError("upper bound must be positive")
        n_bits = upper.bit_length()
        n_bytes = (n_bits + 7) // 8
        while True:
            candidate = int.from_bytes(self.read(n_bytes), "big")
            candidate >>= n_bytes * 8 - n_bits
            if candidate < upper:
                return candidate

    def uniform_float(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.uniform_int(1 << 53) / float(1 << 53)


# -- verbatim: crypto/hgd.py ---------------------------------------------------
# Above this standard deviation the exact inverse transform would need too
# many probability-mass evaluations, so we switch to the normal approximation.
_EXACT_STDDEV_LIMIT = 64.0


def _log_choose(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_pmf(k: int, draws: int, good: int, total: int) -> float:
    bad = total - good
    return (
        _log_choose(good, k)
        + _log_choose(bad, draws - k)
        - _log_choose(total, draws)
    )


def hypergeometric_sample(draws: int, good: int, bad: int, coins: DeterministicStream) -> int:
    """Sample the number of "good" items among ``draws`` draws without
    replacement from an urn of ``good`` + ``bad`` items.

    The result always lies in ``[max(0, draws - bad), min(draws, good)]``.
    """
    if draws < 0 or good < 0 or bad < 0:
        raise CryptoError("hypergeometric parameters must be non-negative")
    total = good + bad
    if draws > total:
        raise CryptoError("cannot draw more items than the urn contains")

    low = max(0, draws - bad)
    high = min(draws, good)
    if low == high:
        return low

    mean = draws * good / total
    variance = (
        draws * (good / total) * (bad / total) * (total - draws) / max(total - 1, 1)
    )
    stddev = math.sqrt(max(variance, 0.0))

    if stddev > _EXACT_STDDEV_LIMIT:
        return _normal_approximation(mean, stddev, low, high, coins)
    return _exact_inverse_transform(draws, good, total, low, high, coins)


def _normal_approximation(
    mean: float, stddev: float, low: int, high: int, coins: DeterministicStream
) -> int:
    """Deterministic Box-Muller normal draw, rounded and clamped to the support."""
    u1 = coins.uniform_float()
    u2 = coins.uniform_float()
    # Guard against log(0).
    u1 = max(u1, 1e-300)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    value = int(round(mean + stddev * z))
    return min(max(value, low), high)


def _exact_inverse_transform(
    draws: int, good: int, total: int, low: int, high: int, coins: DeterministicStream
) -> int:
    """Mode-centred inverse transform over the exact hypergeometric pmf.

    Expands outwards from the mode, accumulating probability mass until the
    cumulative mass exceeds the target quantile.  Visiting values in a fixed
    (deterministic) order keeps encryption and decryption consistent.  The
    mass of each neighbour follows from the previous one via the pmf
    recurrence, so only the mode pays the log-gamma evaluation.
    """
    target = coins.uniform_float()
    bad = total - good
    mode = int((draws + 1) * (good + 1) / (total + 2))
    mode = min(max(mode, low), high)

    p_mode = math.exp(_log_pmf(mode, draws, good, total))
    cumulative = p_mode
    if cumulative >= target:
        return mode
    # P(k-1) = P(k) * k (bad - draws + k) / ((good - k + 1) (draws - k + 1))
    # P(k+1) = P(k) * (good - k) (draws - k) / ((k + 1) (bad - draws + k + 1))
    p_down = p_up = p_mode
    k_down = k_up = mode
    chosen = mode
    while k_down > low or k_up < high:
        if k_down > low:
            p_down *= (
                k_down * (bad - draws + k_down)
                / ((good - k_down + 1) * (draws - k_down + 1))
            )
            k_down -= 1
            chosen = k_down
            cumulative += p_down
            if cumulative >= target:
                return k_down
        if k_up < high:
            p_up *= (
                (good - k_up) * (draws - k_up)
                / ((k_up + 1) * (bad - draws + k_up + 1))
            )
            k_up += 1
            chosen = k_up
            cumulative += p_up
            if cumulative >= target:
                return k_up
    # Floating-point residue kept the cumulative mass below 1: fall back to
    # the last value visited, exactly like the pre-recurrence implementation.
    return chosen


# -- verbatim: crypto/ope.py ---------------------------------------------------
@dataclass(frozen=True)
class _Node:
    """One node of the lazily sampled order-preserving function."""

    d_lo: int
    d_hi: int
    r_lo: int
    r_hi: int

    @property
    def domain_size(self) -> int:
        return self.d_hi - self.d_lo + 1

    @property
    def range_size(self) -> int:
        return self.r_hi - self.r_lo + 1


class ReferenceOPE:
    """The parent's key schedule and recursion, without the value memo."""

    def __init__(self, key: bytes, plaintext_bits: int, ciphertext_bits: int):
        self.domain_size = 1 << plaintext_bits
        self.range_size = 1 << ciphertext_bits
        self._coins_key = derive_key(key, "ope-coins", length=32)

    def encrypt(self, plaintext: int) -> int:
        return self._encrypt_recursive(plaintext, self._root())

    def decrypt(self, ciphertext: int) -> int:
        return self._decrypt_recursive(ciphertext, self._root())

    # -- recursion --------------------------------------------------------
    def _root(self) -> _Node:
        return _Node(0, self.domain_size - 1, 0, self.range_size - 1)

    def _coins(self, node: _Node, label: bytes) -> DeterministicStream:
        node_label = b"%b:%d:%d:%d:%d" % (label, node.d_lo, node.d_hi, node.r_lo, node.r_hi)
        return DeterministicStream(self._coins_key, node_label)

    def _split(self, node: _Node) -> tuple[int, int]:
        """Return (range midpoint, #plaintexts mapped at or below it)."""
        mid_r = node.r_lo + (node.range_size // 2) - 1
        lower_range = mid_r - node.r_lo + 1
        coins = self._coins(node, b"node")
        below = hypergeometric_sample(
            draws=lower_range,
            good=node.domain_size,
            bad=node.range_size - node.domain_size,
            coins=coins,
        )
        return mid_r, below

    def _encrypt_recursive(self, plaintext: int, node: _Node) -> int:
        while True:
            if node.domain_size == 1:
                coins = self._coins(node, b"leaf")
                return node.r_lo + coins.uniform_int(node.range_size)
            mid_r, below = self._split(node)
            if plaintext < node.d_lo + below:
                node = _Node(node.d_lo, node.d_lo + below - 1, node.r_lo, mid_r)
            else:
                node = _Node(node.d_lo + below, node.d_hi, mid_r + 1, node.r_hi)

    def _decrypt_recursive(self, ciphertext: int, node: _Node) -> int:
        while True:
            if node.domain_size == 1:
                coins = self._coins(node, b"leaf")
                expected = node.r_lo + coins.uniform_int(node.range_size)
                if expected != ciphertext:
                    raise CryptoError("ciphertext is not a valid OPE encryption")
                return node.d_lo
            mid_r, below = self._split(node)
            if ciphertext <= mid_r:
                if below == 0:
                    raise CryptoError("ciphertext is not a valid OPE encryption")
                node = _Node(node.d_lo, node.d_lo + below - 1, node.r_lo, mid_r)
            else:
                if below == node.domain_size:
                    raise CryptoError("ciphertext is not a valid OPE encryption")
                node = _Node(node.d_lo + below, node.d_hi, mid_r + 1, node.r_hi)
