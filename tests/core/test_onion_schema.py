"""Onion model and proxy-side schema metadata."""

import pytest

from repro.core.onion import (
    ComputationClass,
    EncryptionScheme,
    Onion,
    SecurityLevel,
    is_at_least,
    layer_index,
    requirement_for,
)
from repro.core.schema import ProxySchema
from repro.errors import ProxyError
from repro.sql.parser import parse_sql


def test_layer_order_in_eq_onion():
    assert layer_index(Onion.EQ, EncryptionScheme.RND) == 0
    assert layer_index(Onion.EQ, EncryptionScheme.DET) == 1
    assert layer_index(Onion.EQ, EncryptionScheme.JOIN) == 2
    assert is_at_least(EncryptionScheme.DET, EncryptionScheme.DET, Onion.EQ)
    assert is_at_least(EncryptionScheme.JOIN, EncryptionScheme.DET, Onion.EQ)
    assert not is_at_least(EncryptionScheme.RND, EncryptionScheme.DET, Onion.EQ)


def test_requirements_map():
    assert requirement_for(ComputationClass.EQUALITY) == (Onion.EQ, EncryptionScheme.DET)
    assert requirement_for(ComputationClass.ORDER) == (Onion.ORD, EncryptionScheme.OPE)
    assert requirement_for(ComputationClass.ADDITION) == (Onion.ADD, EncryptionScheme.HOM)
    assert requirement_for(ComputationClass.WORD_SEARCH) == (Onion.SEARCH, EncryptionScheme.SEARCH)
    assert requirement_for(ComputationClass.NONE) is None
    with pytest.raises(ProxyError):
        requirement_for(ComputationClass.PLAINTEXT)


def test_security_levels():
    assert SecurityLevel.of(EncryptionScheme.RND) == SecurityLevel.RND
    assert SecurityLevel.of(EncryptionScheme.HOM) == SecurityLevel.RND
    assert SecurityLevel.of(EncryptionScheme.DET) == SecurityLevel.DET
    assert SecurityLevel.of(EncryptionScheme.OPE) < SecurityLevel.of(EncryptionScheme.DET)
    with pytest.raises(ProxyError):
        layer_index(Onion.ADD, EncryptionScheme.DET)


def _schema() -> ProxySchema:
    schema = ProxySchema(hom_slots=5)
    create = parse_sql(
        "CREATE TABLE emp (id INT, name VARCHAR(40), notes TEXT, photo BLOB)"
    )
    schema.add_table("emp", create.columns, plaintext_columns={"photo"})
    return schema


def test_onions_per_column_kind():
    schema = _schema()
    id_col = schema.column("emp", "id")
    assert set(id_col.onions) == {Onion.EQ, Onion.ORD, Onion.ADD}
    name_col = schema.column("emp", "name")
    assert set(name_col.onions) == {Onion.EQ, Onion.ORD, Onion.SEARCH}
    photo = schema.column("emp", "photo")
    assert photo.plaintext and not photo.onions


def test_anonymized_names_hide_identifiers():
    schema = _schema()
    table = schema.table("emp")
    assert table.anon_name.startswith("table")
    column = table.column("name")
    assert column.onion_state(Onion.EQ).anon_name == "C2_Eq"
    assert column.iv_column == "C2_IV"


def test_initial_levels_and_lowering():
    schema = _schema()
    column = schema.column("emp", "name")
    assert column.onion_state(Onion.EQ).level == EncryptionScheme.RND
    removed = schema.lower_onion("emp", "name", Onion.EQ, EncryptionScheme.DET)
    assert removed == [EncryptionScheme.RND]
    assert column.onion_state(Onion.EQ).level == EncryptionScheme.DET
    # Lowering again to the same level is a no-op.
    assert schema.lower_onion("emp", "name", Onion.EQ, EncryptionScheme.DET) == []
    removed = schema.lower_onion("emp", "name", Onion.EQ, EncryptionScheme.JOIN)
    assert removed == [EncryptionScheme.DET]


def test_min_enc():
    schema = _schema()
    column = schema.column("emp", "id")
    assert column.min_enc() == SecurityLevel.RND
    schema.lower_onion("emp", "id", Onion.EQ, EncryptionScheme.DET)
    assert column.min_enc() == SecurityLevel.DET
    schema.lower_onion("emp", "id", Onion.ORD, EncryptionScheme.OPE)
    assert column.min_enc() == SecurityLevel.OPE
    assert schema.column("emp", "photo").min_enc() == SecurityLevel.PLAIN


def test_minimum_level_constraint():
    schema = ProxySchema(hom_slots=5)
    create = parse_sql("CREATE TABLE cc (number VARCHAR(20))")
    schema.add_table("cc", create.columns, minimum_levels={"number": SecurityLevel.DET})
    column = schema.column("cc", "number")
    assert column.allows_level(Onion.EQ, EncryptionScheme.DET)
    assert not column.allows_level(Onion.ORD, EncryptionScheme.OPE)
