"""Seeded random SQL statement streams for differential conformance runs.

The generator emits streams over a small fleet of tables with typed columns
(integers, scaled decimals, single-word and multi-word text, NULLs), mixing
multi-row INSERTs, parameterized statements, predicate-rich SELECTs
(WHERE / ORDER BY / LIMIT / GROUP BY / HAVING / DISTINCT), equi- and LEFT
joins, UPDATEs (including homomorphic ``col = col + k`` increments), DELETEs
and transactions with ROLLBACK.  Predicates include two-sided ranges on the
indexed ``id``/``qty`` columns, which the encrypted lanes serve by bisecting
the ordered index over the Ord onion.

Every emitted statement is constrained to the SQL surface that all lanes of
the differential oracle execute with identical semantics:

* ORDER BY always ends with the unique ``id`` column when the row *sequence*
  will be compared (ties would otherwise be legitimately backend-dependent),
  and LIMIT/OFFSET only appear on such totally-ordered SELECTs.
* Text values come from a vocabulary whose words are pairwise non-substrings
  with distinct 4-byte prefixes, so ``LIKE '%word%'`` (plaintext substring
  semantics) agrees with the SEARCH rewrite (full-word semantics) and OPE
  string ordering (4-byte-prefix based, §5) agrees with full lexicographic
  ordering.
* Columns hit by a homomorphic increment are tracked as HOM-stale: the
  proxy refuses server-side Eq/Ord reads of them (§3.3), so the generator
  keeps them out of DML predicates -- state must never diverge -- while
  occasionally emitting a stale-column SELECT on purpose to exercise the
  oracle's "proxy may refuse, but must not lie" path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Optional

#: Pairwise non-substring words with distinct 4-byte prefixes (see module doc).
VOCAB = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "hotel",
    "india", "juliet", "kilos", "lima", "mike", "november", "oscar",
    "papa", "quebec", "romeo", "sierra", "tango", "uniform", "victor",
    "whiskey", "xray", "yankee", "zulu",
]

#: Unicode words, also distinct in their first four UTF-8 bytes.
UNICODE_VOCAB = ["αλφα", "βήτα", "γάμμα", "δέλτα", "ωμέγα"]


@dataclass
class GeneratedStatement:
    """One statement of a stream, plus how the oracle should treat it."""

    sql: str
    params: Optional[tuple] = None
    kind: str = "dml"  # ddl | dml | select | txn
    #: SELECT whose row *sequence* is comparable (ORDER BY ends in a unique key).
    ordered: bool = False
    #: The encrypted lanes may legitimately refuse this statement
    #: (UnsupportedQueryError); it must then be side-effect free.
    may_be_unsupported: bool = False

    def describe(self) -> str:
        if self.params is not None:
            return f"{self.sql}  -- params={self.params!r}"
        return self.sql


@dataclass
class _TableState:
    name: str
    next_id: int = 1
    #: Columns whose non-Add onions are stale after a HOM increment.
    hom_stale: set = field(default_factory=set)


def _sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    if isinstance(value, float):
        return repr(value)
    return str(value)


class StatementGenerator:
    """Generates one reproducible statement stream from a seed."""

    #: Columns of every generated table: (name, SQL type, value family).
    COLUMNS = [
        ("id", "INT", "id"),
        ("qty", "INT", "int"),
        ("price", "DECIMAL", "decimal"),
        ("name", "VARCHAR(40)", "word"),
        ("notes", "TEXT", "sentence"),
        ("ref", "INT", "ref"),
    ]

    def __init__(
        self,
        seed: int,
        tables: int = 2,
        unicode_text: bool = True,
        sum_heavy: bool = False,
    ):
        self.rng = random.Random(seed)
        self.seed = seed
        self.tables = [_TableState(f"t{i}") for i in range(max(1, tables))]
        self.in_transaction = False
        self.sum_heavy = sum_heavy
        self._word_pool = list(VOCAB) + (list(UNICODE_VOCAB) if unicode_text else [])

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------
    def _value(self, family: str, table: _TableState, nullable: bool = True) -> Any:
        rng = self.rng
        if nullable and family not in ("id",) and rng.random() < 0.10:
            return None
        if family == "id":
            value = table.next_id
            table.next_id += 1
            return value
        if family == "int":
            return rng.randint(-1000, 1000)
        if family == "decimal":
            # Two decimal places: survives the proxy's DECIMAL scaling exactly.
            return rng.randint(-99999, 99999) / 100.0
        if family == "word":
            return rng.choice(self._word_pool)
        if family == "sentence":
            return " ".join(rng.sample(VOCAB, rng.randint(1, 4)))
        if family == "ref":
            other = self._other_table(table)
            upper = max(other.next_id - 1, 1)
            return rng.randint(1, max(upper, 1))
        raise ValueError(family)

    def _other_table(self, table: _TableState) -> _TableState:
        others = [t for t in self.tables if t is not table]
        return self.rng.choice(others) if others else table

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    #: Column -> value family for predicate literals.
    _PREDICATE_FAMILIES = {
        "id": "pred_id", "qty": "int", "price": "decimal",
        "name": "word", "ref": "pred_id",
    }

    def _predicate_literal(self, column: str, table: _TableState) -> Any:
        family = self._PREDICATE_FAMILIES[column]
        if family == "pred_id":
            return self.rng.randint(1, max(table.next_id - 1, 1))
        return self._value(family, table, nullable=False)

    def _comparison(self, table: _TableState, qualifier: str = "",
                    allow_stale: bool = False) -> str:
        rng = self.rng
        columns = [c for c in ("id", "qty", "price", "name", "ref")
                   if allow_stale or c not in table.hom_stale]
        if not columns:
            columns = ["id"]
        column = rng.choice(columns)
        prefix = f"{qualifier}." if qualifier else ""
        roll = rng.random()
        if column in ("id", "qty") and roll < 0.15:
            return self._two_sided_range(f"{prefix}{column}", column, table)
        if roll < 0.45:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            return f"{prefix}{column} {op} {_sql_literal(self._predicate_literal(column, table))}"
        if roll < 0.60:
            low = self._predicate_literal(column, table)
            high = self._predicate_literal(column, table)
            if column != "name" and isinstance(low, (int, float)) and low > high:
                low, high = high, low
            return f"{prefix}{column} BETWEEN {_sql_literal(low)} AND {_sql_literal(high)}"
        if roll < 0.75:
            items = ", ".join(
                _sql_literal(self._predicate_literal(column, table))
                for _ in range(rng.randint(1, 3))
            )
            negated = "NOT " if rng.random() < 0.3 else ""
            return f"{prefix}{column} {negated}IN ({items})"
        if roll < 0.88:
            negated = "NOT " if rng.random() < 0.4 else ""
            return f"{prefix}{column} IS {negated}NULL"
        word = rng.choice(VOCAB)
        negated = "NOT " if rng.random() < 0.25 else ""
        return f"{prefix}notes {negated}LIKE '%{word}%'"

    def _two_sided_range(self, ref: str, column: str, table: _TableState) -> str:
        """A range bounded on both sides, over an indexed column.

        These are the shapes an ordered index serves from one bisection to
        the other once their bounds are merged: both operand orders, an
        empty interval, and a BETWEEN tightened by an extra bound.
        """
        rng = self.rng
        low, high = sorted(self._predicate_literal(column, table) for _ in range(2))
        shape = rng.randrange(4)
        if shape == 0:
            text = f"{ref} >= {low} AND {ref} < {high}"
        elif shape == 1:
            text = f"{low} <= {ref} AND {ref} <= {high}"
        elif shape == 2:
            text = f"{ref} > {low} AND {ref} < {low}"
        else:
            text = f"{ref} BETWEEN {low} AND {high} AND {ref} < {rng.randint(low, high)}"
        return f"({text})"

    def _predicate(self, table: _TableState, qualifier: str = "",
                   allow_stale: bool = False) -> str:
        rng = self.rng
        first = self._comparison(table, qualifier, allow_stale)
        if rng.random() < 0.35:
            second = self._comparison(table, qualifier, allow_stale)
            connector = rng.choice(["AND", "OR"])
            if rng.random() < 0.15:
                second = f"NOT ({second})"
            return f"{first} {connector} {second}"
        return first

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def schema_statements(self) -> list[GeneratedStatement]:
        """CREATE TABLE + CREATE INDEX + seed rows for every table."""
        statements: list[GeneratedStatement] = []
        for table in self.tables:
            columns = ", ".join(f"{name} {sql_type}" for name, sql_type, _ in self.COLUMNS)
            statements.append(
                GeneratedStatement(f"CREATE TABLE {table.name} ({columns})", kind="ddl")
            )
            statements.append(
                GeneratedStatement(
                    f"CREATE INDEX idx_{table.name} ON {table.name} (id, qty)",
                    kind="ddl",
                )
            )
        for table in self.tables:
            for _ in range(3):
                statements.append(self._insert(table))
        return statements

    def _insert(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        names = [name for name, _, _ in self.COLUMNS]
        if rng.random() < 0.35:
            # Parameterized single-row INSERT: exercises the plan cache and
            # the deferred row-value encryption slots.
            row = tuple(self._value(family, table) for _, _, family in self.COLUMNS)
            placeholders = ", ".join("?" for _ in names)
            return GeneratedStatement(
                f"INSERT INTO {table.name} ({', '.join(names)}) VALUES ({placeholders})",
                params=row,
            )
        rows = []
        for _ in range(rng.randint(1, 4)):
            values = ", ".join(
                _sql_literal(self._value(family, table)) for _, _, family in self.COLUMNS
            )
            rows.append(f"({values})")
        return GeneratedStatement(
            f"INSERT INTO {table.name} ({', '.join(names)}) VALUES {', '.join(rows)}"
        )

    def _update(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        where = f" WHERE {self._predicate(table)}" if rng.random() < 0.9 else ""
        if rng.random() < (0.8 if self.sum_heavy else 0.35):
            # Homomorphic increment; the column's other onions go stale.
            column = rng.choice(["qty", "price"])
            delta: Any
            if column == "qty":
                delta = rng.randint(1, 50) * (1 if rng.random() < 0.6 else -1)
            else:
                delta = rng.randint(1, 999) / 100.0
            op = "+" if rng.random() < 0.7 else "-"
            table.hom_stale.add(column)
            if rng.random() < 0.4:
                return GeneratedStatement(
                    f"UPDATE {table.name} SET {column} = {column} {op} ?{where}",
                    params=(delta,),
                )
            return GeneratedStatement(
                f"UPDATE {table.name} SET {column} = {column} {op} {_sql_literal(delta)}{where}"
            )
        column, _, family = rng.choice(
            [c for c in self.COLUMNS if c[0] not in ("id",)]
        )
        value = self._value(family, table)
        if rng.random() < 0.4:
            return GeneratedStatement(
                f"UPDATE {table.name} SET {column} = ?{where}", params=(value,)
            )
        return GeneratedStatement(
            f"UPDATE {table.name} SET {column} = {_sql_literal(value)}{where}"
        )

    def _delete(self, table: _TableState) -> GeneratedStatement:
        return GeneratedStatement(
            f"DELETE FROM {table.name} WHERE {self._predicate(table)}"
        )

    def _select(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        allow_stale = rng.random() < 0.08  # exercise the refusal path
        stale_involved = allow_stale and bool(table.hom_stale)
        roll = rng.random()

        if roll < 0.22:
            return self._aggregate_select(table)
        if roll < 0.34:
            return self._grouped_select(table)
        if roll < 0.46:
            return self._join_select(table)

        columns = rng.sample([name for name, _, _ in self.COLUMNS], rng.randint(1, 4))
        if "id" not in columns:
            columns.append("id")
        projection = "*" if rng.random() < 0.25 else ", ".join(columns)
        distinct = "DISTINCT " if rng.random() < 0.12 and projection != "*" else ""
        where = ""
        if rng.random() < 0.75:
            where = f" WHERE {self._predicate(table, allow_stale=allow_stale)}"
        order = ""
        ordered = False
        if rng.random() < 0.55:
            sortable = [c for c in ("qty", "price", "name") if c not in table.hom_stale]
            keys = rng.sample(sortable, rng.randint(0, min(2, len(sortable)))) if sortable else []
            directions = [f"{key} {rng.choice(['ASC', 'DESC'])}" for key in keys]
            directions.append(f"id {rng.choice(['ASC', 'DESC'])}")
            order = " ORDER BY " + ", ".join(directions)
            ordered = True
            if rng.random() < 0.5:
                order += f" LIMIT {rng.randint(1, 8)}"
                if rng.random() < 0.4:
                    order += f" OFFSET {rng.randint(1, 4)}"
        sql = f"SELECT {distinct}{projection} FROM {table.name}{where}{order}"
        return GeneratedStatement(
            sql, kind="select", ordered=ordered,
            may_be_unsupported=stale_involved and bool(where),
        )

    def _aggregate_select(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        aggregates = ["COUNT(*)"]
        may_be_unsupported = False
        numeric = rng.choice(["qty", "price"])
        choice = rng.random()
        if choice < 0.45:
            aggregates.append(f"SUM({numeric})")
            if rng.random() < 0.5:
                aggregates.append(f"AVG({numeric})")
        elif choice < 0.7:
            aggregates.append(f"MIN({numeric})")
            aggregates.append(f"MAX({numeric})")
            may_be_unsupported = numeric in table.hom_stale
        else:
            target = rng.choice(["name", "qty"])
            distinct = "DISTINCT " if rng.random() < 0.5 else ""
            aggregates.append(f"COUNT({distinct}{target})")
            may_be_unsupported = target in table.hom_stale and bool(distinct)
        where = ""
        if rng.random() < 0.5:
            where = f" WHERE {self._predicate(table)}"
        sql = f"SELECT {', '.join(aggregates)} FROM {table.name}{where}"
        return GeneratedStatement(sql, kind="select", may_be_unsupported=may_be_unsupported)

    def _grouped_select(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        group = rng.choice([c for c in ("name", "qty", "ref") if c not in table.hom_stale]
                           or ["name"])
        aggregate = rng.choice(["COUNT(*)", "SUM(qty)", "SUM(price)", "AVG(price)"])
        having = ""
        if rng.random() < 0.35:
            having = f" HAVING COUNT(*) >= {rng.randint(1, 3)}"
        where = ""
        if rng.random() < 0.4:
            where = f" WHERE {self._predicate(table)}"
        sql = (
            f"SELECT {group}, {aggregate} FROM {table.name}{where} "
            f"GROUP BY {group}{having}"
        )
        return GeneratedStatement(sql, kind="select")

    def _join_select(self, table: _TableState) -> GeneratedStatement:
        rng = self.rng
        other = self._other_table(table)
        if other is table:
            return self._aggregate_select(table)
        join_type = "LEFT" if rng.random() < 0.35 else "INNER"
        if rng.random() < 0.15:
            condition = "a.name = b.name"
        else:
            condition = "a.ref = b.id"
        conjuncts = []
        if rng.random() < 0.4:
            conjuncts.append(self._predicate(table, qualifier="a"))
        if rng.random() < 0.3:
            # A conjunct on the right table, over columns the projection omits.
            conjuncts.append(self._comparison(other, qualifier="b"))
        where = ""
        if conjuncts:
            where = " WHERE " + " AND ".join(f"({c})" for c in conjuncts)
        ordered = rng.random() < 0.5
        order = ""
        if ordered:
            keys = ["a.id ASC", "b.id ASC"]
            sortable = [c for c in ("price", "name", "ref") if c not in other.hom_stale]
            if sortable and rng.random() < 0.3:
                # Sort first by a right-table column the projection omits.
                keys.insert(0, f"b.{rng.choice(sortable)} {rng.choice(['ASC', 'DESC'])}")
            order = " ORDER BY " + ", ".join(keys)
            if rng.random() < 0.4:
                order += f" LIMIT {rng.randint(2, 10)}"
        sql = (
            f"SELECT a.id, a.name, b.id, b.qty FROM {table.name} AS a "
            f"{join_type} JOIN {other.name} AS b ON {condition}{where}{order}"
        )
        return GeneratedStatement(sql, kind="select", ordered=ordered)

    def _audit(self, table: _TableState) -> GeneratedStatement:
        """Full-table ordered dump: catches silent state divergence early."""
        return GeneratedStatement(
            f"SELECT * FROM {table.name} ORDER BY id ASC",
            kind="select",
            ordered=True,
        )

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def next_statement(self) -> GeneratedStatement:
        rng = self.rng
        table = rng.choice(self.tables)
        if self.in_transaction and rng.random() < 0.25:
            self.in_transaction = False
            return GeneratedStatement(
                rng.choice(["COMMIT", "ROLLBACK"]), kind="txn"
            )
        roll = rng.random()
        if self.sum_heavy:
            # Aggregate-dominated mix for the packed-HOM lanes: rows pile up
            # through INSERTs and increments while SUM/AVG sweeps them, so
            # streams cross packed-sum chunk boundaries (slot headroom) and
            # read cells carrying pending homomorphic deltas.
            if roll < 0.34:
                return self._insert(table)
            if roll < 0.58:
                return self._aggregate_select(table)
            if roll < 0.70:
                return self._grouped_select(table)
            if roll < 0.92:
                return self._update(table)
            return self._audit(table)
        if roll < 0.24:
            return self._insert(table)
        if roll < 0.60:
            return self._select(table)
        if roll < 0.74:
            return self._update(table)
        if roll < 0.80:
            return self._delete(table)
        if roll < 0.88:
            return self._audit(table)
        if not self.in_transaction:
            self.in_transaction = True
            return GeneratedStatement("BEGIN", kind="txn")
        return self._select(table)

    def generate_stream(self, count: int) -> list[GeneratedStatement]:
        """Schema + ``count`` statements + closing audit, fully seeded.

        ROLLBACK discards row changes but the generator's id counters keep
        advancing; ids stay unique (gaps are fine) so total ORDER BY keys
        and ref targets remain valid either way.
        """
        statements = self.schema_statements()
        for _ in range(count):
            statements.append(self.next_statement())
        if self.in_transaction:
            self.in_transaction = False
            statements.append(GeneratedStatement("COMMIT", kind="txn"))
        for table in self.tables:
            statements.append(self._audit(table))
        return statements
