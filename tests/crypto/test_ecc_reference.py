"""P-192 known answers from an independent implementation.

Every other ECC test checks ``repro.crypto.ecc`` against itself (comb vs.
wNAF vs. affine double-and-add).  Here the expected points come from the
``cryptography`` package's SECP192R1, so a shared mistake -- a wrong curve
constant, a bad reduction -- cannot hide.  ``src/`` stays dependency-free:
the module is skipped where ``cryptography`` is not installed.
"""

import random

import pytest

ec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")

from repro.crypto import ecc  # noqa: E402

SCALARS = [1, 2, ecc.ORDER - 1, 2**96, 2**191] + [
    random.Random(20110023).randrange(1, ecc.ORDER) for _ in range(8)
]


def _reference(scalar: int) -> ecc.Point:
    """``scalar * G`` computed by OpenSSL through ``cryptography``."""
    numbers = ec.derive_private_key(scalar % ecc.ORDER, ec.SECP192R1()).public_key().public_numbers()
    return ecc.Point(numbers.x, numbers.y)


def test_curve_constants_match_secp192r1():
    assert _reference(1) == ecc.GENERATOR
    assert ec.SECP192R1().key_size == 192


@pytest.mark.parametrize("scalar", SCALARS)
def test_scalar_multiply_base(scalar):
    assert ecc.scalar_multiply_base(scalar) == _reference(scalar)


def test_scalar_multiply_base_many():
    assert ecc.scalar_multiply_base_many(SCALARS) == [_reference(k) for k in SCALARS]


@pytest.mark.parametrize("multiplier", [3, 2**100 + 7, ecc.ORDER - 2])
def test_scalar_multiply_arbitrary_points(multiplier):
    # P = a*G, so k*P must equal (k*a mod n)*G.
    point = _reference(multiplier)
    for scalar in SCALARS:
        assert ecc.scalar_multiply(scalar, point) == _reference(scalar * multiplier % ecc.ORDER)
    many = [_reference(multiplier * (i + 1)) for i in range(4)]
    for scalar in SCALARS:
        assert ecc.scalar_multiply_many(scalar, many) == [
            _reference(scalar * multiplier * (i + 1) % ecc.ORDER) for i in range(4)
        ]
