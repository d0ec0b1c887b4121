"""Deterministic hypergeometric sampling for the OPE scheme.

The Boldyreva order-preserving encryption scheme recursively splits the
ciphertext range and, at each split, draws from a hypergeometric distribution
how many plaintexts fall below the midpoint.  The draw must be *deterministic*
given the PRF-derived coins, so that encryption and decryption walk the same
tree.  The paper ports the 1988 Kachitvichyanukul-Schmeiser Fortran sampler;
we implement an exact mode-centred inverse-transform sampler for moderate
variance, and a deterministic normal approximation (clamped to the support)
when the variance is large.  Only determinism and staying within the support
are required for correctness of OPE; the approximation affects only how close
the ciphertext distribution is to a truly random order-preserving function.

Known defect, kept on purpose: the exact sampler anchors its walk on the
mode's mass, computed from ``lgamma`` differences.  For urns near 2^46 items
those terms are near 2e15, where a double resolves 0.25, so the log-mass is
off by a few hundredths to a few tenths and the masses over the support sum
to 0.939 (draws 2^45, good 16 368, total 2^46), 0.995 (2^39, 4 000, 2^40) or
1.028 (2^43, 4 000, 2^44) instead of 1.  A coin above the sum that can be
reached therefore finds no quantile and the sampler returns the last value
its walk visits.  Repairing the sum would move quantiles, i.e. re-sample the
OPE function and invalidate every stored Ord onion, so the sampler keeps the
arithmetic and only stops walking once the outcome is decided: when the
masses on both sides are shrinking and adding the two latest leaves the
running sum unchanged, no later mass can change it either, and the answer is
the value the full walk would have ended on.  That bounds a draw by the
distance at which the tail underflows the sum's last bit (about 8 standard
deviations) instead of the size of the support.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.errors import CryptoError

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


def hypergeometric_sample(draws: int, good: int, bad: int, coins: Iterator[float]) -> int:
    """Sample the number of "good" items among ``draws`` draws without
    replacement from an urn of ``good`` + ``bad`` items.

    ``coins`` yields the uniform floats in ``[0, 1)`` that decide the draw.
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
    return _exact_walk(next(coins), draws, good, total, low, high)[0]


def _normal_approximation(
    mean: float, stddev: float, low: int, high: int, coins: Iterator[float]
) -> int:
    """Deterministic Box-Muller normal draw, rounded and clamped to the support."""
    u1 = next(coins)
    u2 = next(coins)
    # Guard against log(0).
    u1 = max(u1, 1e-300)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    value = int(round(mean + stddev * z))
    return min(max(value, low), high)


def _exact_walk(
    target: float, draws: int, good: int, total: int, low: int, high: int
) -> tuple[int, int]:
    """Mode-centred inverse transform over the exact hypergeometric pmf.

    Returns ``(value, steps)``: the ``target`` quantile and the number of loop
    iterations it took to find it (each visits at most one value per side).

    Expands outwards from the mode, accumulating probability mass until the
    cumulative mass reaches the target quantile.  Visiting values in a fixed
    (deterministic) order keeps encryption and decryption consistent.  The
    mass of each neighbour follows from the previous one via the pmf
    recurrence, so only the mode pays the log-gamma evaluation.
    """
    bad = total - good
    mode = int((draws + 1) * (good + 1) / (total + 2))
    mode = min(max(mode, low), high)
    # Where a walk that never reaches the target ends: the down and up steps
    # alternate, so the last value visited is the far end of the longer side.
    last = low if mode - low > high - mode else high

    p_mode = math.exp(_log_pmf(mode, draws, good, total))
    cumulative = p_mode
    if cumulative >= target:
        return mode, 0
    # P(k-1) = P(k) * k (bad - draws + k) / ((good - k + 1) (draws - k + 1))
    # P(k+1) = P(k) * (good - k) (draws - k) / ((k + 1) (bad - draws + k + 1))
    p_down = p_up = p_mode
    k_down = k_up = mode
    steps = 0
    while k_down > low or k_up < high:
        steps += 1
        tail = 0.0
        shrinking = True
        if k_down > low:
            ratio = (
                k_down * (bad - draws + k_down)
                / ((good - k_down + 1) * (draws - k_down + 1))
            )
            p_down *= ratio
            k_down -= 1
            cumulative += p_down
            if cumulative >= target:
                return k_down, steps
            tail = p_down
            shrinking = ratio < 1.0
        if k_up < high:
            ratio = (
                (good - k_up) * (draws - k_up)
                / ((k_up + 1) * (bad - draws + k_up + 1))
            )
            p_up *= ratio
            k_up += 1
            cumulative += p_up
            if cumulative >= target:
                return k_up, steps
            tail += p_up
            shrinking = shrinking and ratio < 1.0
        # Each side's ratio only falls as the walk moves outwards (its
        # numerator shrinks, its denominator grows, and the division is
        # correctly rounded), so once the ratios of the sides still open are
        # below 1 no later mass exceeds the ones just added.  If adding both
        # of those leaves the running sum unchanged, nothing later changes
        # it either: the rest of the walk would visit every remaining value
        # and return the last.
        if shrinking and cumulative + tail == cumulative:
            return last, steps
    # The computed masses summed to less than the target (the log-gamma error
    # in ``p_mode``, see the module docstring) on a support too short for the
    # tails to vanish: the walk has visited every value and ends on the last.
    return last, steps
