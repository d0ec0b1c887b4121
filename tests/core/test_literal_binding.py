"""A literal binds like a ``?``: no plan embeds a ciphertext.

Every literal written to or compared with an encrypted column is lifted into
the plan's ``literals`` and bound through the same slots as a parameter, so
its plan is cached and each execution draws fresh RND IVs and Paillier
randomness.
"""

from repro.core.onion import Onion


def _group_cells(proxy, table):
    """The stored packed-HOM cells of ``table``, in storage order."""
    meta = proxy.schema.table(table)
    group = meta.hom_groups[0].anon_name
    return [row[group] for _, row in proxy.db.table(meta.anon_name).scan()]


def _eq_cells(proxy, table, column):
    """The stored Eq-onion cells of one column, in storage order."""
    meta = proxy.schema.table(table)
    name = proxy.schema.column(table, column).onion_state(Onion.EQ).anon_name
    return [row[name] for _, row in proxy.db.table(meta.anon_name).scan()]


def test_literal_insert_and_set_are_cached_with_fresh_randomness(proxy):
    proxy.execute("CREATE TABLE p (id int, a int, b int)")
    insert = "INSERT INTO p (id, a, b) VALUES (1, 10, NULL), (2, 20, 7)"
    proxy.execute(insert)
    rewrites = proxy.stats.queries_rewritten
    proxy.execute(insert)
    assert proxy.stats.queries_rewritten == rewrites  # one rewrite, then cached
    # A member missing from the column list lifts as NULL.
    proxy.execute("INSERT INTO p (id, a) VALUES (3, 30)")
    assert len(set(_eq_cells(proxy, "p", "a"))) == 5  # distinct RND cells
    assert len(set(_group_cells(proxy, "p"))) == 5  # distinct packed cells
    assert proxy.execute("SELECT SUM(a), SUM(b) FROM p").rows == [(90, 14)]
    assert proxy.execute("SELECT b FROM p WHERE id = 3").rows == [(None,)]

    proxy.execute("SELECT a FROM p WHERE id = 1")  # lower id's Eq onion first
    update = "UPDATE p SET a = 5 WHERE id = 1"
    proxy.execute(update)
    cells = set(_group_cells(proxy, "p"))
    eq_cells = set(_eq_cells(proxy, "p", "a"))
    rewrites = proxy.stats.queries_rewritten
    proxy.execute(update)
    assert proxy.stats.queries_rewritten == rewrites  # one rewrite, then cached
    # The two id = 1 rows got fresh packed cells (one rewrite per old cell)
    # and a fresh Eq cell (one per execution, shared by the rows it sets).
    assert len(set(_group_cells(proxy, "p")) - cells) == 2
    assert len(set(_eq_cells(proxy, "p", "a")) - eq_cells) == 1
    assert len(set(_group_cells(proxy, "p"))) == 5
    assert proxy.execute("SELECT a, b FROM p WHERE id = 1").rows == [(5, None), (5, None)]
    assert proxy.execute("SELECT a, b FROM p WHERE id = 2").rows == [(20, 7), (20, 7)]
    assert proxy.execute("SELECT SUM(a), SUM(b) FROM p").rows == [(80, 14)]


_JOIN = "SELECT {0}.id FROM {0} JOIN {1} ON {0}.k = {1}.k"


def _four_tables(proxy):
    """Tables a, b, d, e with equal keys; a joins b and d joins e."""
    for table in "abde":
        proxy.execute(f"CREATE TABLE {table} (id int, k int)")
        proxy.executemany(
            f"INSERT INTO {table} (id, k) VALUES (?, ?)", [(i, 10 * i) for i in (1, 2, 3)]
        )
    assert sorted(proxy.execute(_JOIN.format("a", "b")).rows) == [(1,), (2,), (3,)]
    assert sorted(proxy.execute(_JOIN.format("d", "e")).rows) == [(1,), (2,), (3,)]


def test_join_rekey_keeps_cached_constant_plans(proxy):
    """A re-key needs fresh Eq encryptions, not new plans."""
    _four_tables(proxy)
    probes = [
        (f"SELECT id FROM {table} WHERE k {op}", params)
        for table in "abde"
        for op, params in (("= ?", (20,)), ("= 20", ()))
    ]
    for sql, params in probes:
        assert proxy.execute(sql, params).rows == [(2,)]
    # Joining the two groups re-keys one of them at the server.
    assert sorted(proxy.execute(_JOIN.format("b", "d")).rows) == [(1,), (2,), (3,)]
    rewrites = proxy.stats.queries_rewritten
    for sql, params in probes:
        assert proxy.execute(sql, params).rows == [(2,)], sql
    assert proxy.stats.queries_rewritten == rewrites  # every plan survived


def test_rolled_back_rekey_invalidates_its_join_plan(proxy):
    """ROLLBACK of a pure re-key must not leave its JOIN plan cached."""
    _four_tables(proxy)
    proxy.execute("BEGIN")
    assert sorted(proxy.execute(_JOIN.format("b", "d")).rows) == [(1,), (2,), (3,)]
    proxy.execute("ROLLBACK")
    # Only JOIN-ADJ keys moved (every k was already at the JOIN layer); the
    # server rolled the re-key back, so the join must re-key again.
    assert sorted(proxy.execute(_JOIN.format("b", "d")).rows) == [(1,), (2,), (3,)]
    assert proxy.execute("SELECT id FROM d WHERE k = ?", (20,)).rows == [(2,)]
