"""Packed HOM slots (§8.4): codec edge cases and packed/scalar equivalence.

The slot layout is ``[count: h+1 bits][value: v+h bits]`` per slot, values
offset-encoded so signed data never borrows across slot boundaries under
homomorphic addition.  These tests pin the codec's arithmetic (negative
values, range limits, NULL slots, delta encoding) and the overflow contract:
exactly ``chunk_rows`` rows may be summed into one ciphertext, after which
the aggregate must close the chunk (multi-chunk partial-sum blobs).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import (
    PackingConfig,
    PaillierKeyPair,
    decode_partial_sums,
    encode_partial_sums,
    is_partial_sum_blob,
)
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeyPair.generate(512)


CONFIG = PackingConfig(value_bits=32, headroom_bits=4)


# ---------------------------------------------------------------------------
# plain codec (no crypto)
# ---------------------------------------------------------------------------
def test_layout_widths():
    assert CONFIG.value_width == 36
    assert CONFIG.count_width == 5
    assert CONFIG.slot_width == 41
    assert CONFIG.chunk_rows == 16
    assert CONFIG.offset == 1 << 31


def test_slots_for_modulus():
    assert CONFIG.slots_for(1 << 512) == 511 // 41
    default = PackingConfig()
    assert default.slot_width == 97
    assert default.slots_for(1 << 1024) == 10
    with pytest.raises(CryptoError):
        CONFIG.slots_for(1 << 40)  # smaller than one slot


def test_signed_roundtrip_all_slots():
    values = [0, -1, CONFIG.offset - 1, -CONFIG.offset, 7]
    cell = CONFIG.encode_cell(values)
    for slot, value in enumerate(values):
        assert CONFIG.decode_cell(cell, slot) == value
        assert CONFIG.decode_slot(cell, slot) == (1, value)


def test_null_slots_decode_to_none():
    cell = CONFIG.encode_cell([None, 42, None])
    assert CONFIG.decode_cell(cell, 0) is None
    assert CONFIG.decode_cell(cell, 1) == 42
    assert CONFIG.decode_cell(cell, 2) is None
    assert CONFIG.decode_slot(cell, 0) == (0, 0)


def test_out_of_range_values_refused():
    with pytest.raises(CryptoError):
        CONFIG.encode_cell([CONFIG.offset])
    with pytest.raises(CryptoError):
        CONFIG.encode_cell([-CONFIG.offset - 1])
    with pytest.raises(CryptoError):
        CONFIG.encode_delta(CONFIG.offset, 0, 1 << 512)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(),
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_codec_roundtrip_property(values):
    cell = CONFIG.encode_cell(values)
    for slot, value in enumerate(values):
        assert CONFIG.decode_cell(cell, slot) == value


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=16,  # == CONFIG.chunk_rows: the legal per-chunk maximum
    )
)
def test_plaintext_sum_matches_scalar_sum(rows):
    """Adding encoded cells in the integers == per-slot (count, sum) pairs."""
    total = sum(CONFIG.encode_cell(row) for row in rows)
    for slot in range(3):
        column = [row[slot] for row in rows if row[slot] is not None]
        assert CONFIG.decode_slot(total, slot) == (len(column), sum(column))


# ---------------------------------------------------------------------------
# overflow at the headroom boundary
# ---------------------------------------------------------------------------
def test_overflow_after_exactly_chunk_rows():
    """chunk_rows rows sum cleanly; one more can corrupt the next subfield.

    Each encoded value is ``v + offset < 2^value_bits``, and the value
    subfield carries ``headroom_bits`` spare bits, so sums of up to
    ``2^headroom_bits`` maximal rows fit exactly.  Row ``chunk_rows + 1``
    can carry out of the value subfield into the count subfield -- which is
    why the SUM aggregate must close its chunk at ``chunk_rows``, never
    later.
    """
    tiny = PackingConfig(value_bits=8, headroom_bits=2)  # chunk_rows == 4
    maximal = tiny.offset - 1  # 127: encodes to all-ones, no spare room
    rows = [tiny.encode_cell([maximal, 5]) for _ in range(tiny.chunk_rows)]
    total = sum(rows)
    assert tiny.decode_slot(total, 0) == (4, 4 * maximal)
    assert tiny.decode_slot(total, 1) == (4, 20)
    overflowed = total + tiny.encode_cell([maximal, 5])
    count, value = tiny.decode_slot(overflowed, 0)
    assert (count, value) != (5, 5 * maximal)
    assert count == 6  # the value subfield carried into the count subfield


def test_delta_encoding_is_additive(keypair):
    """encode_delta shifts an increment into one slot without borrow."""
    n = keypair.public.n
    cell = CONFIG.encode_cell([10, -10, None])
    stored = (cell + CONFIG.encode_delta(-25, 0, n)) % n
    stored = (stored + CONFIG.encode_delta(40, 1, n)) % n
    assert CONFIG.decode_cell(stored, 0) == -15
    assert CONFIG.decode_cell(stored, 1) == 30
    assert CONFIG.decode_cell(stored, 2) is None


# ---------------------------------------------------------------------------
# encrypted paths
# ---------------------------------------------------------------------------
def test_encrypt_packed_roundtrip(keypair, hom_slot_sum):
    values = [123, None, -456]
    ciphertext = keypair.encrypt_packed(values, CONFIG)
    decoded = [hom_slot_sum(keypair, ciphertext, slot, CONFIG) for slot in range(3)]
    assert decoded == [(1, 123), (0, 0), (1, -456)]


def test_encrypt_packed_many_matches_singles(keypair):
    rows = [[1, 2], [None, -3], [4, None]]
    batch = keypair.encrypt_packed_many(rows, CONFIG)
    for ciphertext, row in zip(batch, rows):
        plaintext = keypair.decrypt(ciphertext)
        for slot, value in enumerate(row):
            assert CONFIG.decode_cell(plaintext, slot) == value


def test_homomorphic_packed_sum(keypair, hom_slot_sum):
    n_sq = keypair.public.n_squared
    rows = [[5, -2], [None, 7], [3, None], [-1, -1]]
    product = 1
    for row in rows:
        product = (product * keypair.encrypt_packed(row, CONFIG)) % n_sq
    assert hom_slot_sum(keypair, product, 0, CONFIG) == (3, 7)
    assert hom_slot_sum(keypair, product, 1, CONFIG) == (3, 4)


def test_partial_sum_blob_roundtrip(keypair, hom_slot_sum):
    parts = [keypair.encrypt_packed([i], CONFIG) for i in (1, 2, 3)]
    blob = encode_partial_sums(parts)
    assert is_partial_sum_blob(blob)
    assert not is_partial_sum_blob(b"nope")
    assert not is_partial_sum_blob(12345)
    assert decode_partial_sums(blob) == parts
    # The decryption path adds the per-slot pairs across all partials.
    assert hom_slot_sum(keypair, blob, 0, CONFIG) == (3, 6)
    with pytest.raises(CryptoError):
        decode_partial_sums(blob + b"x")
