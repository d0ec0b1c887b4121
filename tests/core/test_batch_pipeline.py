"""Column-batch encryption/decryption equivalence and cache correctness.

The columnar kernels serve every statement (``execute`` is a batch of one),
so they are pinned against an independent composition of the primitives:
batch-encrypted cells decrypt through the scalar decryptor (and vice versa),
deterministic layers match the reference byte-for-byte, and the Eq memo is
invalidated when a JOIN-ADJ re-keying changes what the column stores.
"""

import pytest

from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.core.onion import EncryptionScheme, Onion
from repro.core.schema import ProxySchema
from repro.crypto.join_adj import JoinCiphertext
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.paillier import PACKING
from repro.sql.parser import parse_sql


def reference_eq(encryptor, column, value, level):
    """The Eq onion's deterministic layers straight from the primitives.

    No memo, no batching: JOIN-ADJ hash || DET_join, then DET.  This is the
    reference the memoised kernels are compared against.
    """
    plaintext = encryptor._to_bytes(column, value)
    adj = encryptor.joins.join_adj_for(column.table, column.name).hash_value(plaintext)
    join_ct = JoinCiphertext(
        adj, encryptor._det_join_for(column).encrypt_bytes(plaintext)
    ).serialize()
    if level is EncryptionScheme.JOIN:
        return join_ct
    return encryptor._det_for(column).encrypt_bytes(join_ct)


@pytest.fixture()
def setup(paillier_keypair):
    schema = ProxySchema(PACKING.slots_for(paillier_keypair.public.n))
    create = parse_sql(
        "CREATE TABLE t (n INT, s VARCHAR(50), txt TEXT, price DECIMAL(8,2))"
    )
    schema.add_table("t", create.columns)
    master = MasterKey.from_passphrase("batch-encryptor-test")
    joins = JoinManager(master.material)
    for name in ("n", "s", "txt", "price"):
        joins.register_column("t", name)
    encryptor = Encryptor(KeyManager(master), joins, paillier_keypair, PACKING)
    return schema, encryptor


VALUES = {
    "n": [7, -3, 7, None, 0, 7],
    "s": ["alpha", "beta", "alpha", None, "", "alpha"],
    "price": [1.25, -9.5, 1.25, None, 0.0, 1.25],
}


@pytest.mark.parametrize("column_name", ["n", "s", "price"])
def test_batch_cells_decrypt_through_scalar_path(setup, column_name):
    schema, encryptor = setup
    column = schema.column("t", column_name)
    values = VALUES[column_name]
    parts = encryptor.encrypt_column_values(column, values)
    # The Add onion is encrypted per group cell (encrypt_hom_group_many).
    assert set(parts) == {
        s.anon_name for o, s in column.onions.items() if o is not Onion.ADD
    } | {column.iv_column}
    ivs = parts[column.iv_column]
    for onion, state in column.onions.items():
        if onion in (Onion.SEARCH, Onion.ADD):
            continue
        if onion is Onion.ORD and column.kind != "integer":
            # Text Ord onions encode a 4-byte prefix, not the full value;
            # batch/scalar equivalence for them is covered separately.
            continue
        cells = parts[state.anon_name]
        for value, cell, iv in zip(values, cells, ivs):
            if value is None:
                assert cell is None
                continue
            decrypted = encryptor.decrypt_value(column, onion, state.level, cell, iv)
            if isinstance(value, float):
                assert decrypted == pytest.approx(value)
            else:
                assert decrypted == value


@pytest.mark.parametrize("column_name", ["n", "s", "price"])
def test_decrypt_column_matches_scalar_decrypt(setup, column_name):
    schema, encryptor = setup
    column = schema.column("t", column_name)
    values = VALUES[column_name]
    parts = encryptor.encrypt_column_values(column, values)
    ivs = parts[column.iv_column]
    state = column.onion_state(Onion.EQ)
    cells = parts[state.anon_name]
    batch = encryptor.decrypt_column(column, Onion.EQ, state.level, cells, ivs)
    scalar = [
        None if c is None else encryptor.decrypt_value(column, Onion.EQ, state.level, c, iv)
        for c, iv in zip(cells, ivs)
    ]
    assert batch == scalar
    ord_state = column.onion_state(Onion.ORD)
    ord_cells = parts[ord_state.anon_name]
    assert encryptor.decrypt_column(column, Onion.ORD, ord_state.level, ord_cells, ivs) == [
        None if c is None else encryptor.decrypt_value(column, Onion.ORD, ord_state.level, c, iv)
        for c, iv in zip(ord_cells, ivs)
    ]


@pytest.mark.parametrize("level", [EncryptionScheme.DET, EncryptionScheme.JOIN])
def test_constants_match_the_primitive_reference(setup, level):
    schema, encryptor = setup
    column = schema.column("t", "s")
    values = ["x", "y", "x", None]
    batch = encryptor.encrypt_constants_many(column, Onion.EQ, level, values)
    for value, cell in zip(values, batch):
        expected = None if value is None else reference_eq(encryptor, column, value, level)
        assert cell == expected
        # A batch of one runs the same kernel.
        assert cell == encryptor.encrypt_constants_many(column, Onion.EQ, level, [value])[0]
    # Repeated values share one deterministic ciphertext.
    assert batch[0] == batch[2]


def test_eq_memo_hits_and_reset(setup):
    schema, encryptor = setup
    column = schema.column("t", "s")
    encryptor.encrypt_column_values(column, ["a", "b", "a", "a"])
    stats = encryptor.cache.statistics()
    assert stats.det_misses == 2
    assert stats.det_hits == 2
    assert stats.det_entries >= 2
    encryptor.cache.reset_counters()
    stats = encryptor.cache.statistics()
    assert stats.det_hits == 0 and stats.det_misses == 0
    assert stats.det_entries >= 2  # entries survive a counter reset


def test_eq_memo_survives_mid_batch_failure(setup, monkeypatch):
    """A batch that dies in the JOIN-ADJ hash must not poison the memo."""
    from repro.crypto.join_adj import JoinAdj

    schema, encryptor = setup
    column = schema.column("t", "s")

    def explode(self, values):
        raise RuntimeError("interrupted mid-batch")

    with monkeypatch.context() as patched:
        patched.setattr(JoinAdj, "hash_values", explode)
        with pytest.raises(RuntimeError):
            encryptor.encrypt_column_values(column, ["x", "y"])
    # The failed batch left no half-built entries behind: the same values
    # encrypt fine afterwards and agree with the primitive reference.
    retry = encryptor.encrypt_constants_many(
        column, Onion.EQ, EncryptionScheme.DET, ["x", "y"]
    )
    expected = [
        reference_eq(encryptor, column, value, EncryptionScheme.DET)
        for value in ("x", "y")
    ]
    assert retry == expected


def test_eq_memo_invalidated_by_join_rekey(setup):
    schema, encryptor = setup
    column_s = schema.column("t", "s")
    column_txt = schema.column("t", "txt")
    before = encryptor.encrypt_constants_many(
        column_txt, Onion.EQ, EncryptionScheme.JOIN, ["shared"]
    )[0]
    # Re-key txt so it becomes joinable with s (the group base is the
    # lexicographically first column, so txt's scalar changes).
    adjustments = encryptor.joins.ensure_joinable(("t", "s"), ("t", "txt"))
    assert adjustments, "expected txt to be re-keyed"
    for adjustment in adjustments:
        encryptor.cache.invalidate_eq(adjustment.table, adjustment.column)
    after = encryptor.encrypt_constants_many(
        column_txt, Onion.EQ, EncryptionScheme.JOIN, ["shared"]
    )[0]
    assert after != before  # stale memo would have replayed the old key
    # And the fresh ciphertext is what the re-keyed primitives produce.
    assert after == reference_eq(
        encryptor, column_txt, "shared", EncryptionScheme.JOIN
    )
    # The JOIN-ADJ prefix now matches s's encryption of the same value.
    other = encryptor.encrypt_constants_many(
        column_s, Onion.EQ, EncryptionScheme.JOIN, ["shared"]
    )[0]
    size = encryptor.adj_prefix_size()
    assert after[:size] == other[:size]


def test_ablation_reports_no_cache_activity(paillier_keypair):
    """With the ciphertext cache off (Proxy*), counters must stay at zero."""
    schema = ProxySchema(PACKING.slots_for(paillier_keypair.public.n))
    schema.add_table("t", parse_sql("CREATE TABLE t (n INT, s VARCHAR(20))").columns)
    master = MasterKey.from_passphrase("ablation-test")
    joins = JoinManager(master.material)
    joins.register_column("t", "n")
    joins.register_column("t", "s")
    encryptor = Encryptor(
        KeyManager(master), joins, paillier_keypair, PACKING, use_ope_cache=False
    )
    column = schema.column("t", "s")
    encryptor.encrypt_column_values(column, ["a", "a", "b", "a"])
    stats = encryptor.cache.statistics()
    assert stats.det_hits == 0 and stats.det_misses == 0
    assert stats.ope_hits == 0 and stats.ope_misses == 0
    assert stats.search_hits == 0 and stats.search_misses == 0
    assert stats.det_entries == 0 and stats.ope_entries == 0


def test_hom_deltas_decrypt(setup):
    """Each delta folds into its column's slot and leaves the neighbour alone."""
    schema, encryptor = setup
    column = schema.column("t", "n")
    members = [schema.column("t", name) for name in schema.table("t").hom_groups[0].members]
    n_squared = encryptor.paillier.public.n_squared
    deltas = [5, -2, 0]
    for delta, ct in zip(deltas, encryptor.hom_delta_many(column, deltas)):
        cell = encryptor.encrypt_hom_group_many(members, [[10, 2.5]])[0]
        folded = (cell * ct) % n_squared
        assert encryptor.decrypt_value(column, Onion.ADD, EncryptionScheme.HOM, folded) == 10 + delta
        assert encryptor.decrypt_value(
            members[1], Onion.ADD, EncryptionScheme.HOM, folded
        ) == 2.5
