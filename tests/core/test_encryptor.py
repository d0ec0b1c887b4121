"""Value encoding and layered onion encryption."""

import pytest

from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.core.onion import EncryptionScheme, Onion
from repro.core.schema import ProxySchema
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.paillier import PACKING
from repro.crypto.rnd import RND
from repro.errors import ProxyError
from repro.sql.parser import parse_sql


@pytest.fixture()
def setup(paillier_keypair):
    schema = ProxySchema(PACKING.slots_for(paillier_keypair.public.n))
    create = parse_sql(
        "CREATE TABLE t (n INT, s VARCHAR(50), txt TEXT, price DECIMAL(8,2))"
    )
    schema.add_table("t", create.columns)
    master = MasterKey.from_passphrase("encryptor-test")
    joins = JoinManager(master.material)
    for name in ("n", "s", "txt", "price"):
        joins.register_column("t", name)
    encryptor = Encryptor(KeyManager(master), joins, paillier_keypair, PACKING)
    return schema, encryptor


def _row(encryptor, column, value):
    """One value's onion cells: ``encrypt_column_values`` on a batch of one."""
    parts = encryptor.encrypt_column_values(column, [value])
    return {name: cells[0] for name, cells in parts.items()}


def _constant(encryptor, column, onion, level, value):
    return encryptor.encrypt_constants_many(column, onion, level, [value])[0]


def _group_cell(encryptor, members, values):
    return encryptor.encrypt_hom_group_many(members, [values])[0]


def _group_members(schema):
    """The Add-onion columns of ``t`` in slot order (n, then price)."""
    return [schema.column("t", name) for name in schema.table("t").hom_groups[0].members]


def test_row_encryption_produces_all_onions(setup):
    schema, encryptor = setup
    column = schema.column("t", "n")
    cells = _row(encryptor, column, 42)
    # The Add onion lives in the table's shared group cell, not per column.
    assert set(cells) == {"C1_Eq", "C1_Ord", "C1_IV"}
    assert isinstance(cells["C1_Eq"], bytes)
    assert isinstance(cells["C1_Ord"], int)


def test_row_encryption_null_passthrough(setup):
    schema, encryptor = setup
    cells = _row(encryptor, schema.column("t", "s"), None)
    assert all(value is None for value in cells.values())


def test_eq_onion_roundtrip_through_all_layers(setup):
    schema, encryptor = setup
    column = schema.column("t", "s")
    cells = _row(encryptor, column, "hello")
    iv = cells[column.iv_column]
    ciphertext = cells[column.onion_state(Onion.EQ).anon_name]
    assert encryptor.decrypt_value(column, Onion.EQ, EncryptionScheme.RND, ciphertext, iv) == "hello"
    det_ct = _constant(encryptor, column, Onion.EQ, EncryptionScheme.DET, "hello")
    assert encryptor.decrypt_value(column, Onion.EQ, EncryptionScheme.DET, det_ct) == "hello"
    # Stripping the stored cell's RND layer leaves exactly the DET constant.
    assert RND(encryptor.layer_key(column, Onion.EQ, EncryptionScheme.RND)).decrypt_bytes(
        ciphertext, iv
    ) == det_ct
    join_ct = _constant(encryptor, column, Onion.EQ, EncryptionScheme.JOIN, "hello")
    assert encryptor.decrypt_value(column, Onion.EQ, EncryptionScheme.JOIN, join_ct) == "hello"


def test_det_constants_match_stored_values(setup):
    schema, encryptor = setup
    column = schema.column("t", "n")
    cells = _row(encryptor, column, 7)
    stored = RND(encryptor.layer_key(column, Onion.EQ, EncryptionScheme.RND)).decrypt_bytes(
        cells[column.onion_state(Onion.EQ).anon_name], cells[column.iv_column]
    )
    constant = _constant(encryptor, column, Onion.EQ, EncryptionScheme.DET, 7)
    assert stored == constant
    assert _constant(encryptor, column, Onion.EQ, EncryptionScheme.DET, 8) != constant


def test_ord_onion_preserves_order(setup):
    schema, encryptor = setup
    column = schema.column("t", "n")
    values = [-50, -1, 0, 3, 1000]
    ciphertexts = [
        _constant(encryptor, column, Onion.ORD, EncryptionScheme.OPE, v) for v in values
    ]
    assert ciphertexts == sorted(ciphertexts)
    assert encryptor.decrypt_value(column, Onion.ORD, EncryptionScheme.OPE, ciphertexts[0]) == -50


def test_decimal_encoding_roundtrip(setup):
    schema, encryptor = setup
    column = schema.column("t", "price")
    cells = _row(encryptor, column, 19.99)
    ciphertext = cells[column.onion_state(Onion.EQ).anon_name]
    assert encryptor.decrypt_value(
        column, Onion.EQ, EncryptionScheme.RND, ciphertext, cells[column.iv_column]
    ) == 19.99
    hom_ct = _group_cell(encryptor, _group_members(schema), [None, 19.99])
    assert encryptor.decrypt_value(column, Onion.ADD, EncryptionScheme.HOM, hom_ct) == 19.99


def test_hom_handles_negative_values(setup):
    schema, encryptor = setup
    column = schema.column("t", "n")
    ciphertext = _group_cell(encryptor, _group_members(schema), [-25, 7.5])
    assert encryptor.decrypt_value(column, Onion.ADD, EncryptionScheme.HOM, ciphertext) == -25


def test_search_tokens_match_search_onion(setup):
    from repro.crypto.search import SEARCH, SearchCiphertext

    schema, encryptor = setup
    column = schema.column("t", "txt")
    stored = _row(encryptor, column, "meeting notes about budget")[
        column.onion_state(Onion.SEARCH).anon_name
    ]
    token = encryptor.search_token(column, "budget")
    assert SEARCH.matches(SearchCiphertext.deserialize(stored), token)
    assert not SEARCH.matches(SearchCiphertext.deserialize(stored), encryptor.search_token(column, "salary"))


def test_constant_encryption_rejects_rnd_level(setup):
    schema, encryptor = setup
    column = schema.column("t", "n")
    with pytest.raises(ProxyError):
        _constant(encryptor, column, Onion.EQ, EncryptionScheme.RND, 5)
