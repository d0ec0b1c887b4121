"""Paillier (HOM): round trips, additive homomorphism, randomness pool."""

import secrets

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.numbers import crt_pair, generate_prime, is_probable_prime, modinv
from repro.crypto.paillier import (
    FIXED_BASE_TABLE_BYTES,
    PackingConfig,
    Paillier,
    PaillierKeyPair,
    PaillierPrivateKey,
)
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keypair():
    return PaillierKeyPair.generate(512)


@pytest.fixture(scope="module")
def plain_keypair(keypair):
    """The same key without its prime factors: forces the lambda/mu path."""
    private = PaillierPrivateKey(keypair.private.lam, keypair.private.mu)
    assert private.p == 0  # no factors -> no CRT
    return PaillierKeyPair(keypair.public, private)


def test_roundtrip(keypair):
    for value in (0, 1, 12345, 2**40):
        assert keypair.decrypt(keypair.encrypt(value)) == value


def test_encryption_is_probabilistic(keypair):
    assert keypair.encrypt(77) != keypair.encrypt(77)


def test_homomorphic_addition(keypair):
    hom = Paillier(keypair.public)
    ciphertext = hom.add(keypair.encrypt(1234), keypair.encrypt(4321))
    assert keypair.decrypt(ciphertext) == 5555


def test_add_plain_constant(keypair):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.add_plain(keypair.encrypt(100), 23)) == 123


def test_sum_aggregate(keypair):
    hom = Paillier(keypair.public)
    values = [3, 14, 159, 2653]
    total = hom.sum([keypair.encrypt(v) for v in values])
    assert keypair.decrypt(total) == sum(values)


def test_sum_of_nothing_is_zero(keypair):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.sum([])) == 0


def test_randomness_pool(keypair):
    keypair.precompute_randomness(3)
    assert keypair.randomness_pool_size >= 3
    before = keypair.randomness_pool_size
    keypair.encrypt(5)
    assert keypair.randomness_pool_size == before - 1


def test_generated_key_retains_factors(keypair):
    private = keypair.private
    assert private.p > 1 and private.q > 1
    assert private.p * private.q == keypair.public.n


def test_crt_decrypt_equals_plain_decrypt(keypair, plain_keypair):
    for value in (0, 1, 2**40, keypair.public.n - 1):
        ciphertext = keypair.encrypt(value)
        assert keypair.decrypt(ciphertext) == plain_keypair.decrypt(ciphertext)
        assert keypair.decrypt(ciphertext) == value


@settings(max_examples=25, deadline=None)
@given(value=st.integers(min_value=0, max_value=2**60))
def test_crt_decrypt_equivalence_property(keypair, plain_keypair, value):
    ciphertext = plain_keypair.encrypt(value)  # r^n via the plain path
    assert keypair.decrypt(ciphertext) == plain_keypair.decrypt(ciphertext) == value


def test_crt_randomness_precompute_matches_plain_pow(keypair):
    """The CRT-computed ``r^n mod n^2`` equals the direct exponentiation."""
    crt = keypair._crt_context()
    assert crt is not None
    n, n_sq = keypair.public.n, keypair.public.n_squared
    for _ in range(5):
        r = secrets.randbelow(n - 2) + 1
        assert crt.pow_to_n(r, n, n_sq) == pow(r, n, n_sq)


def test_crt_pool_ciphertexts_decrypt_on_both_paths(keypair, plain_keypair):
    keypair.precompute_randomness(2)
    for value in (17, 123456789):
        ciphertext = keypair.encrypt(value)  # draws a CRT-pooled factor
        assert plain_keypair.decrypt(ciphertext) == value


def test_rejects_out_of_range(keypair):
    with pytest.raises(CryptoError):
        keypair.encrypt(-1)
    with pytest.raises(CryptoError):
        keypair.encrypt(keypair.public.n)
    with pytest.raises(CryptoError):
        keypair.decrypt(keypair.public.n_squared)


def test_key_generation_rejects_tiny_keys():
    with pytest.raises(CryptoError):
        PaillierKeyPair.generate(32)


def test_number_theory_helpers():
    assert is_probable_prime(2) and is_probable_prime(97) and not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael number
    prime = generate_prime(64)
    assert prime.bit_length() == 64 and is_probable_prime(prime)
    assert (modinv(3, 11) * 3) % 11 == 1
    with pytest.raises(CryptoError):
        modinv(6, 9)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(min_value=0, max_value=2**30), b=st.integers(min_value=0, max_value=2**30))
def test_homomorphism_property(keypair, a, b):
    hom = Paillier(keypair.public)
    assert keypair.decrypt(hom.add(keypair.encrypt(a), keypair.encrypt(b))) == a + b


# ---------------------------------------------------------------------------
# fixed-base (Damgard-Jurik-Nielsen) randomness, section 3.5.2 pre-computation
# ---------------------------------------------------------------------------
def _fresh(keypair, factors=True):
    """The same key numbers with none of the shared pair's pre-computation."""
    private = keypair.private
    if not factors:
        private = PaillierPrivateKey(private.lam, private.mu)
    return PaillierKeyPair(keypair.public, private)


def test_fixed_base_table_is_built_by_the_first_precompute(keypair):
    pair = _fresh(keypair)
    assert pair._fixed_base is None
    pair.encrypt(1)                      # Proxy*: never builds one on its own
    assert pair._fixed_base is None and pair.pool_misses == 1
    pair.precompute_randomness(3)
    table = pair._fixed_base
    assert table is not None and pair.randomness_pool_size == 3
    assert 0 < table.nbytes <= FIXED_BASE_TABLE_BYTES
    assert pair.randomness_pool_bytes > table.nbytes
    pair.precompute_randomness(2)
    assert pair._fixed_base is table     # built once, then amortised
    # The exponent is half as long as n (rounded up to whole bytes).
    assert table.columns * 8 >= keypair.public.n.bit_length() // 2
    assert table.columns * 8 < keypair.public.n.bit_length() // 2 + 8


@pytest.mark.parametrize("factors", [True, False], ids=["crt", "no-factors"])
def test_fixed_base_factors_are_nth_residues(keypair, factors):
    """Every factor decrypts to 0 -- with and without p/q in the key."""
    pair = _fresh(keypair, factors)
    pair.precompute_randomness(4)
    n_sq = keypair.public.n_squared
    drawn = list(pair._randomness_pool) + [pair._fixed_base.draw() for _ in range(4)]
    assert len(set(drawn)) == len(drawn)
    for factor in drawn:
        assert 0 < factor < n_sq
        assert keypair.decrypt(factor) == 0
    for value in (0, 1, 2**40, keypair.public.n - 1):
        assert keypair.decrypt(pair.encrypt(value)) == value
    assert pair.encrypt(77) != pair.encrypt(77)


def test_fixed_base_draw_matches_the_direct_power(keypair, monkeypatch):
    """The comb evaluates h_s^x for the exponent its random digits spell."""
    pair = _fresh(keypair)
    pair.precompute_randomness(0)
    table = pair._fixed_base
    (p_sq, p_tables), (q_sq, _) = table.parts
    h_s = crt_pair(p_tables[0][1], p_sq, table.parts[1][1][0][1], q_sq)
    digits = bytes(range(7, 7 + table.columns))
    exponent = 0
    for position, digit in enumerate(digits):
        for row in range(8):
            if digit >> row & 1:
                exponent |= 1 << (row * table.columns + position)
    monkeypatch.setattr(secrets, "token_bytes", lambda count: digits[:count])
    assert table.draw() == pow(h_s, exponent, keypair.public.n_squared)


def test_mixed_randomness_sources_in_one_aggregate(keypair, plain_keypair, hom_slot_sum):
    """Packed SUM and an increment stay right when pooled, inline fixed-base
    and full-width ``r^n`` factors meet in one ciphertext product."""
    config = PackingConfig(value_bits=32, headroom_bits=4)
    n, n_sq = keypair.public.n, keypair.public.n_squared
    legacy = _fresh(keypair)                      # no table: r^n every time
    pooled = _fresh(keypair)
    pooled.precompute_randomness(2)               # pool hits
    inline = _fresh(keypair)
    inline.precompute_randomness(0)               # table, empty pool
    rows = [[5, -2], [None, 7], [3, None], [-1, -1]]
    product = 1
    for source, row in zip((legacy, pooled, inline, pooled), rows):
        product = product * source.encrypt_packed(row, config) % n_sq
    assert (legacy.pool_misses, pooled.pool_hits, inline.pool_misses) == (1, 2, 1)
    assert legacy._fixed_base is None
    # hom_delta: +10 on slot 0, -4 on slot 1, one from each kind of source.
    product = product * inline.encrypt(config.encode_delta(10, 0, n)) % n_sq
    product = product * legacy.encrypt(config.encode_delta(-4, 1, n)) % n_sq
    for decryptor in (keypair, plain_keypair):
        assert hom_slot_sum(decryptor, product, 0, config) == (3, 17)
        assert hom_slot_sum(decryptor, product, 1, config) == (3, 0)


def test_shed_randomness_releases_factors_then_the_table(keypair):
    pair = _fresh(keypair)
    pair.precompute_randomness(4)
    per_factor = pair.randomness_pool_bytes - pair._fixed_base.nbytes
    assert pair.shed_randomness(1) > 0            # one factor is enough
    assert pair.randomness_pool_size == 3 and pair._fixed_base is not None
    released = pair.shed_randomness(per_factor + pair._fixed_base.nbytes)
    assert pair.randomness_pool_size == 0 and pair._fixed_base is None
    assert released > 0
    assert keypair.decrypt(pair.encrypt(9)) == 9  # full-width r^n again
