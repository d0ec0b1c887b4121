"""Hypergeometric sampler: support bounds, determinism, degenerate cases,
equality with the parent sampler kept in ``ope_reference.py`` and the bound on
how far the exact walk goes."""

import math

import ope_reference
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.hgd import _exact_walk, _log_pmf, hypergeometric_sample
from repro.errors import CryptoError


def _stream(label: bytes) -> ope_reference.DeterministicStream:
    return ope_reference.DeterministicStream(b"hgd-test-key", label)


def _coins(label: bytes = b"x"):
    return iter(_stream(label).uniform_float, None)


def test_degenerate_cases():
    assert hypergeometric_sample(0, 10, 10, _coins()) == 0
    assert hypergeometric_sample(5, 0, 10, _coins()) == 0
    assert hypergeometric_sample(10, 10, 0, _coins()) == 10
    assert hypergeometric_sample(20, 10, 10, _coins()) == 10


def test_determinism():
    assert hypergeometric_sample(50, 30, 70, _coins(b"a")) == hypergeometric_sample(
        50, 30, 70, _coins(b"a")
    )


def test_rejects_invalid_parameters():
    with pytest.raises(CryptoError):
        hypergeometric_sample(-1, 5, 5, _coins())
    with pytest.raises(CryptoError):
        hypergeometric_sample(30, 10, 10, _coins())


def test_large_parameters_use_normal_approximation():
    draws = 2**40
    good = 2**20
    bad = 2**41 - 2**20 - draws + 2**40  # keep total >= draws
    value = hypergeometric_sample(draws, good, bad, _coins(b"large"))
    assert max(0, draws - bad) <= value <= min(draws, good)


def test_mean_is_plausible():
    """The sample mean should sit near draws * good / total."""
    draws, good, bad = 200, 100, 100
    samples = [
        hypergeometric_sample(draws, good, bad, _coins(str(i).encode())) for i in range(200)
    ]
    mean = sum(samples) / len(samples)
    assert 90 < mean < 110


@settings(max_examples=80, deadline=None)
@given(
    draws=st.integers(min_value=0, max_value=10_000),
    good=st.integers(min_value=0, max_value=10_000),
    bad=st.integers(min_value=0, max_value=10_000),
    label=st.binary(min_size=1, max_size=8),
)
def test_support_bounds_property(draws, good, bad, label):
    total = good + bad
    if draws > total:
        draws = total
    value = hypergeometric_sample(draws, good, bad, _coins(label))
    assert max(0, draws - bad) <= value <= min(draws, good)


# ---------------------------------------------------------------------------
# Equality with the parent sampler, which walks on to the end of the support.
# ---------------------------------------------------------------------------
class _FixedCoin:
    """A coin source for the parent sampler that returns one chosen quantile."""

    def __init__(self, target: float):
        self.target = target

    def uniform_float(self) -> float:
        return self.target


def _support(draws: int, good: int, total: int) -> tuple[int, int]:
    return max(0, draws - (total - good)), min(draws, good)


def _parent_walk(target: float, draws: int, good: int, total: int) -> int:
    low, high = _support(draws, good, total)
    return ope_reference._exact_inverse_transform(
        draws, good, total, low, high, _FixedCoin(target)
    )


# Quantiles at and above the mass the float pmf can reach, where the parent
# falls through to "last value visited".
_TARGETS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from([0.93, 0.99, 0.999999, 1.0 - 2.0**-53]),
)

# (draws, good, total): the OPE tree's shape (half the range drawn), a mode
# clamped to the low end, to the high end, and supports cut short on one side.
_LARGE_URNS = [
    (2**45, 16368, 2**46),
    (2**43, 4000, 2**44),
    (2**39, 4000, 2**40),
    (2**30, 5000, 2**46),  # mean < 1: mode == low == 0, nothing below it
    (2**46 - 2**30, 5000, 2**46),  # mode == high == good, nothing above it
    (3000, 2**45, 2**46),  # support [0, draws], mode in the middle
    (2**46 - 40, 2**45, 2**46),  # support starts at draws - bad > 0
    (40, 2**45, 2**46),  # 41 values whose sum falls short of 1
]


@pytest.mark.parametrize("draws, good, total", _LARGE_URNS)
@pytest.mark.parametrize("target", [0.0, 0.3, 0.9, 0.93, 0.99, 0.999999, 1.0 - 2.0**-53])
def test_exact_walk_equals_parent_on_large_urns(draws, good, total, target):
    low, high = _support(draws, good, total)
    value, _ = _exact_walk(target, draws, good, total, low, high)
    assert value == _parent_walk(target, draws, good, total)


@settings(max_examples=150, deadline=None)
@example(total=2, good=1, draws=1, target=0.999999)
@given(
    total=st.one_of(
        st.integers(min_value=2, max_value=40_000),
        st.integers(min_value=2**20, max_value=2**48),
    ),
    good=st.integers(min_value=1, max_value=12_000),
    draws=st.integers(min_value=0, max_value=2**48),
    target=_TARGETS,
)
def test_exact_walk_equals_parent_property(total, good, draws, target):
    good = min(good, total)
    draws = draws % (total + 1)
    low, high = _support(draws, good, total)
    value, steps = _exact_walk(target, draws, good, total, low, high)
    assert value == _parent_walk(target, draws, good, total)
    assert low <= value <= high
    assert steps <= high - low


@settings(max_examples=60, deadline=None)
@given(
    draws=st.integers(min_value=0, max_value=2**47),
    good=st.integers(min_value=0, max_value=2**20),
    bad=st.integers(min_value=0, max_value=2**47),
    label=st.binary(min_size=1, max_size=8),
)
def test_sample_equals_parent_property(draws, good, bad, label):
    """Both samplers, the choice between them and the coins they consume."""
    draws = draws % (good + bad + 1)
    assert hypergeometric_sample(draws, good, bad, _coins(label)) == (
        ope_reference.hypergeometric_sample(draws, good, bad, _stream(label))
    )


# ---------------------------------------------------------------------------
# The pathology, by counting: a coin above the reachable mass.
# ---------------------------------------------------------------------------
def test_unreachable_quantile_stops_within_a_few_sigma():
    """Fails at the parent commit, which visits all 16 368 values: the masses
    over this support sum to 0.94, so a coin of 0.99 finds no quantile."""
    draws, good, total = 2**45, 16368, 2**46
    sigma = math.sqrt(good / 4)  # 64: the largest the exact sampler is given
    value, steps = _exact_walk(0.99, draws, good, total, 0, good)
    assert value == good  # what the full walk ends on: the far end of the longer side
    assert steps <= 10 * sigma
    # One-sided supports stop as soon as their single tail has vanished.
    for one_sided in ((2**30, 5000, 2**46), (2**46 - 2**30, 5000, 2**46)):
        low, high = _support(*one_sided)
        _, steps = _exact_walk(0.9999999, *one_sided, low, high)
        assert steps < 100


def test_short_support_still_walks_to_its_end():
    """41 values whose smallest mass (2^-40) still moves the sum: no early
    exit, the documented fallback to the last value visited."""
    draws, good, total = 40, 2**45, 2**46
    value, steps = _exact_walk(1.0 - 2.0**-53, draws, good, total, 0, draws)
    assert (value, steps) == (draws, draws // 2)


@pytest.mark.xfail(
    strict=True,
    reason="lgamma cancellation in the mode's mass; kept on purpose, because "
    "repairing it re-samples the OPE function (see hgd.py and ROADMAP)",
)
@pytest.mark.parametrize(
    "draws, good, total", [(2**39, 4000, 2**40), (2**43, 4000, 2**44), (2**45, 16368, 2**46)]
)
def test_pmf_sums_to_one_over_the_support(draws, good, total):
    low, high = _support(draws, good, total)
    masses = [math.exp(_log_pmf(k, draws, good, total)) for k in range(low, high + 1)]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-9)
