"""OPE: order preservation, round trips, determinism, caching, and
bit-identity with the parent implementation kept in ``ope_reference.py``."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from ope_reference import DeterministicStream, ReferenceOPE

from repro.core.encryptor import _INT32_OFFSET
from repro.crypto.ope import OPE, _uniform_ints
from repro.errors import CryptoError

KEY = b"ope-key-16-bytes"


@pytest.fixture(scope="module")
def small_ope():
    return OPE(KEY, plaintext_bits=16, ciphertext_bits=32)


def test_order_preservation_on_sorted_sample(small_ope):
    values = [0, 1, 5, 17, 100, 1000, 30000, 65535]
    ciphertexts = [small_ope.encrypt(v) for v in values]
    assert ciphertexts == sorted(ciphertexts)
    assert len(set(ciphertexts)) == len(ciphertexts)


def test_roundtrip(small_ope):
    for value in (0, 1, 12345, 65535):
        assert small_ope.decrypt(small_ope.encrypt(value)) == value


def test_determinism_across_instances():
    a = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    b = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    assert [a.encrypt(v) for v in (3, 999, 40000)] == [b.encrypt(v) for v in (3, 999, 40000)]


def test_different_keys_differ():
    a = OPE(b"key-a" * 4, plaintext_bits=16, ciphertext_bits=32)
    b = OPE(b"key-b" * 4, plaintext_bits=16, ciphertext_bits=32)
    assert [a.encrypt(v) for v in range(10)] != [b.encrypt(v) for v in range(10)]


def test_default_32_to_64_bit_parameters():
    ope = OPE(KEY)
    values = [0, 7, 2**16, 2**31, 2**32 - 1]
    ciphertexts = [ope.encrypt(v) for v in values]
    assert ciphertexts == sorted(ciphertexts)
    assert all(ope.decrypt(c) == v for v, c in zip(values, ciphertexts))


def test_cache_behaviour():
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32, cache=True)
    ope.encrypt(42)
    assert ope.cache_size == 1
    ope.encrypt(42)
    assert ope.cache_size == 1
    ope.clear_cache()
    assert ope.cache_size == 0
    uncached = OPE(KEY, plaintext_bits=16, ciphertext_bits=32, cache=False)
    uncached.encrypt(42)
    assert uncached.cache_size == 0


def test_batch_encryption_preserves_order():
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    values = list(range(0, 2000, 37))
    assert ope.encrypt_batch(values) == sorted(ope.encrypt_batch(values))


def test_rejects_out_of_range_inputs(small_ope):
    with pytest.raises(CryptoError):
        small_ope.encrypt(-1)
    with pytest.raises(CryptoError):
        small_ope.encrypt(1 << 16)
    with pytest.raises(CryptoError):
        small_ope.decrypt(1 << 32)
    with pytest.raises(CryptoError):
        OPE(KEY, plaintext_bits=32, ciphertext_bits=32)


def test_invalid_ciphertext_detected(small_ope):
    ciphertext = small_ope.encrypt(500)
    # A ciphertext that is not the image of any plaintext should be rejected.
    with pytest.raises(CryptoError):
        for candidate in range(ciphertext + 1, ciphertext + 50):
            fresh = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
            fresh.decrypt(candidate)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=65535), min_size=2, max_size=20, unique=True))
def test_order_preservation_property(values):
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    ciphertexts = {v: ope.encrypt(v) for v in values}
    ordered = sorted(values)
    for smaller, larger in zip(ordered, ordered[1:]):
        assert ciphertexts[smaller] < ciphertexts[larger]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=65535))
def test_roundtrip_property(value):
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    assert ope.decrypt(ope.encrypt(value)) == value


# ---------------------------------------------------------------------------
# Conformance-harness satellites: adjacency, boundaries, signed encoding.
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@example(value=0)
@example(value=65534)
@given(value=st.integers(min_value=0, max_value=65534))
def test_adjacent_plaintexts_strictly_ordered(value):
    """x < x+1 must hold as *strict* ciphertext order, even at the edges."""
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    assert ope.encrypt(value) < ope.encrypt(value + 1)


def test_domain_boundary_roundtrip_and_order():
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    lo, hi = 0, ope.domain_size - 1
    assert ope.decrypt(ope.encrypt(lo)) == lo
    assert ope.decrypt(ope.encrypt(hi)) == hi
    assert ope.encrypt(lo) < ope.encrypt(1) <= ope.encrypt(hi - 1) < ope.encrypt(hi)
    # Ciphertexts of the extreme plaintexts stay inside the declared range.
    assert 0 <= ope.encrypt(lo)
    assert ope.encrypt(hi) < ope.range_size


@settings(max_examples=20, deadline=None)
@example(a=-(1 << 31), b=(1 << 31) - 1)
@example(a=-1, b=0)
@example(a=-2, b=-1)
@given(
    a=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
    b=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
)
def test_signed_integers_preserve_order_through_offset_encoding(a, b):
    """Negative application values ride OPE via the encryptor's +2^31 offset.

    The proxy encodes signed INT columns as ``value + _INT32_OFFSET`` before
    OPE (see Encryptor._to_ope_int); order and round-trip must survive the
    combined encoding across the full signed 32-bit domain.
    """
    if a == b:
        b = a + 1 if a < (1 << 31) - 1 else a - 1
    ope = OPE(KEY, plaintext_bits=32, ciphertext_bits=48)
    low, high = sorted((a, b))
    low_ct = ope.encrypt(low + _INT32_OFFSET)
    high_ct = ope.encrypt(high + _INT32_OFFSET)
    assert low_ct < high_ct
    assert ope.decrypt(low_ct) - _INT32_OFFSET == low
    assert ope.decrypt(high_ct) - _INT32_OFFSET == high


@settings(max_examples=30, deadline=None)
@example(value=0)
@example(value=65535)
@given(value=st.integers(min_value=0, max_value=65535))
def test_roundtrip_is_exact_at_boundaries(value):
    ope = OPE(KEY, plaintext_bits=16, ciphertext_bits=32)
    ciphertext = ope.encrypt(value)
    assert ope.decrypt(ciphertext) == value


# ---------------------------------------------------------------------------
# Bit-identity with the parent's two recursions (tests/crypto/ope_reference.py).
# ---------------------------------------------------------------------------
_SHAPES = st.sampled_from([(16, 32), (32, 64)])


@st.composite
def _key_shape_values(draw):
    """A key, a (plaintext, ciphertext) bit shape and a column of plaintexts
    that always holds 0, the maximum and a duplicate."""
    key = draw(st.binary(min_size=1, max_size=32))
    plaintext_bits, ciphertext_bits = draw(_SHAPES)
    top = (1 << plaintext_bits) - 1
    values = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=1, max_size=5))
    values += [0, top, values[0]]
    return key, plaintext_bits, ciphertext_bits, values


def _outcome(decrypt, ciphertext):
    try:
        return decrypt(ciphertext)
    except CryptoError as error:
        return str(error)


@settings(max_examples=25, deadline=None)
@given(_key_shape_values(), st.booleans())
def test_walk_matches_parent_recursions(case, cache):
    key, plaintext_bits, ciphertext_bits, values = case
    reference = ReferenceOPE(key, plaintext_bits, ciphertext_bits)
    ope = OPE(key, plaintext_bits, ciphertext_bits, cache=cache)
    expected = [reference.encrypt(v) for v in values]
    assert ope.encrypt_many(values) == expected
    assert [ope.encrypt(v) for v in values] == expected
    assert ope.decrypt_many(expected) == values
    # A cold instance decrypts by walking the tree, not by reading the memo.
    cold = OPE(key, plaintext_bits, ciphertext_bits, cache=cache)
    assert [cold.decrypt(c) for c in expected] == [reference.decrypt(c) for c in expected]


@settings(max_examples=25, deadline=None)
@given(_key_shape_values(), st.data())
def test_rejects_the_same_ciphertexts_as_parent(case, data):
    """Ciphertexts outside the function's image: same error, or -- for the few
    that are in it -- the same plaintext."""
    key, plaintext_bits, ciphertext_bits, values = case
    reference = ReferenceOPE(key, plaintext_bits, ciphertext_bits)
    ope = OPE(key, plaintext_bits, ciphertext_bits, cache=False)
    top = (1 << ciphertext_bits) - 1
    candidates = [0, top, data.draw(st.integers(min_value=0, max_value=top))]
    for value in values:
        ciphertext = reference.encrypt(value)
        candidates += [c for c in (ciphertext - 1, ciphertext + 1) if 0 <= c <= top]
    for candidate in candidates:
        assert _outcome(ope.decrypt, candidate) == _outcome(reference.decrypt, candidate)
    assert any("not a valid OPE" in str(_outcome(ope.decrypt, c)) for c in candidates)


def test_pinned_ciphertext_digest():
    """1 000 ciphertexts under a fixed key, pinned: a change of coin format,
    label bytes or sampler arithmetic re-samples the function and would orphan
    every stored Ord onion, so it must not pass silently."""
    rng = random.Random(2011)
    values = [rng.randrange(1 << 32) for _ in range(1000)]
    ciphertexts = OPE(b"pinned-ope-key-1", cache=False).encrypt_many(values)
    digest = hashlib.sha256(b"".join(c.to_bytes(8, "big") for c in ciphertexts))
    assert digest.hexdigest() == (
        "d8d48fc25c73f98e3e016665e43b9d29ed87ed9692e92975476c01de4dd5831e"
    )


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=32),
    label=st.binary(max_size=40),
    upper=st.one_of(
        st.just(1 << 53),
        st.integers(min_value=1, max_value=1 << 64),
        st.integers(min_value=0, max_value=300).map(lambda bits: 1 << bits),
    ),
)
def test_node_coins_equal_deterministic_stream(key, label, upper):
    """The one-shot-digest coins are DeterministicStream's, rejections and
    block boundaries included."""
    stream = DeterministicStream(key, label)
    coins = _uniform_ints(key, label, upper)
    assert [next(coins) for _ in range(12)] == [stream.uniform_int(upper) for _ in range(12)]
