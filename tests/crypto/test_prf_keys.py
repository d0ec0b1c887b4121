"""PRF, key derivation (Equation 1) and the reference OPE coin stream."""

import pytest
from ope_reference import DeterministicStream

from repro.crypto import prf
from repro.crypto.keys import KeyManager, MasterKey
from repro.errors import CryptoError


def test_prf_is_deterministic_and_key_dependent():
    assert prf.prf(b"k", b"m") == prf.prf(b"k", b"m")
    assert prf.prf(b"k", b"m") != prf.prf(b"k2", b"m")
    assert prf.prf(b"k", b"m") != prf.prf(b"k", b"m2")


def test_expand_lengths():
    assert len(prf.expand(b"k", b"m", 0)) == 0
    assert len(prf.expand(b"k", b"m", 100)) == 100
    assert prf.expand(b"k", b"m", 100)[:32] == prf.expand(b"k", b"m", 32)


def test_derive_key_distinguishes_label_tuples():
    master = b"master-key"
    # ("ab", "c") and ("a", "bc") must produce different keys (length prefixing).
    assert prf.derive_key(master, "ab", "c") != prf.derive_key(master, "a", "bc")
    assert prf.derive_key(master, "t", "c", "Eq", "DET") != prf.derive_key(
        master, "t", "c", "Eq", "RND"
    )


def test_prf_rejects_empty_key():
    with pytest.raises(CryptoError):
        prf.prf(b"", b"m")


def test_deterministic_stream_reproducible():
    a = DeterministicStream(b"key", b"label")
    b = DeterministicStream(b"key", b"label")
    assert a.read(40) == b.read(40)
    assert a.uniform_int(1000) == b.uniform_int(1000)
    assert a.uniform_float() == b.uniform_float()


def test_deterministic_stream_uniform_int_bounds():
    stream = DeterministicStream(b"key", b"label")
    for upper in (1, 2, 7, 1000, 2**33):
        value = stream.uniform_int(upper)
        assert 0 <= value < upper


def test_master_key_validation_and_derivation():
    with pytest.raises(CryptoError):
        MasterKey(b"short")
    mk = MasterKey.from_passphrase("secret passphrase")
    assert mk == MasterKey.from_passphrase("secret passphrase")
    assert mk != MasterKey.from_passphrase("other passphrase")


def test_key_manager_equation_one():
    manager = KeyManager(MasterKey.from_passphrase("mk"))
    key = manager.key_for("t1", "c1", "Eq", "DET")
    assert key == manager.key_for("t1", "c1", "Eq", "DET")
    assert key != manager.key_for("t1", "c1", "Eq", "RND")
    assert key != manager.key_for("t1", "c2", "Eq", "DET")
    assert key != manager.key_for("t2", "c1", "Eq", "DET")


def test_key_manager_subordinate_differs():
    manager = KeyManager(MasterKey.from_passphrase("mk"))
    sub = manager.subordinate("principal-5")
    assert sub.key_for("t", "c", "Eq", "DET") != manager.key_for("t", "c", "Eq", "DET")
