"""A sqlite3-backed :class:`BackendAdapter`: a *real* second DBMS behind the proxy.

CryptDB's server is an unmodified DBMS plus UDF shared objects (§5).  This
adapter plays that role with the Python standard library's ``sqlite3``:
statements arrive as SQL text or as the AST nodes the proxy's rewriter
produces, are rendered to parameterized SQLite SQL, and CryptDB's UDFs are
registered through ``Connection.create_function`` / ``create_aggregate`` --
no engine code from :mod:`repro.sql` executes on this path, which is what
makes the backend a useful *independent oracle* for the differential
conformance harness in :mod:`repro.testing`.

Value encoding
==============

SQLite integers are signed 64-bit, but CryptDB stores values outside that
range: OPE and RND-Ord ciphertexts are *unsigned* 64-bit and Paillier
ciphertexts run to thousands of bits.  The codec maps Python values onto
SQLite storage classes so that equality and -- for the order-sensitive Ord
onion -- relative order survive the round trip:

* ``None`` / ``int`` in the signed-64 range / ``float`` / ``str`` are stored
  natively (``bool`` as ``0``/``1``, as the in-memory engine coerces it).
* ``bytes`` are stored as a BLOB behind a one-byte tag so they can be told
  apart from encoded big integers when read back.
* Integers at or above ``2**63`` become tagged 8-byte-or-wider big-endian
  BLOBs.  SQLite orders every BLOB after every INTEGER and compares BLOBs
  bytewise, so for the Ord onion's ``[0, 2**64)`` domain the encoding is
  order-preserving: native-range values sort first (numerically), tagged
  values sort after them (lexicographically on fixed 8-byte payloads).
  Paillier ciphertexts ride the same tag with wider payloads; they are only
  ever compared for equality, fed to the HOM UDFs, or decrypted.
* Integers below ``-2**63`` round-trip through a third tag (no ordering
  guarantee; no encryption scheme emits them).

UDF arguments and return values cross the same codec, so the very same
functions :func:`repro.core.udfs.install_udfs` registers against the
in-memory engine run unchanged against SQLite.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Callable, Optional, Union

from repro import faults
from repro.api.backends import fire_backend_fault
from repro.errors import SQLExecutionError
from repro.sql import ast_nodes as ast
from repro.sql.engine import split_statements
from repro.sql.executor import ResultSet
from repro.sql.expressions import like_to_regex
from repro.sql.parser import parse_sql
from repro.sql.types import ColumnDef

StatementLike = Union[str, ast.Statement]

# Storage tags for BLOB-encoded values (see module docstring).
_TAG_BYTES = 0x00
_TAG_BIG_INT = 0x01
_TAG_BIG_NEG_INT = 0x02

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def encode_value(value: Any) -> Any:
    """Encode a Python value into a sqlite3-bindable storage value."""
    if value is None or isinstance(value, (float, str)):
        return value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return value
        if value > 0:
            payload = value.to_bytes(max(8, (value.bit_length() + 7) // 8), "big")
            return bytes([_TAG_BIG_INT]) + payload
        magnitude = -value
        payload = magnitude.to_bytes(max(8, (magnitude.bit_length() + 7) // 8), "big")
        return bytes([_TAG_BIG_NEG_INT]) + payload
    if isinstance(value, (bytes, bytearray)):
        return bytes([_TAG_BYTES]) + bytes(value)
    raise SQLExecutionError(
        f"cannot store a value of type {type(value).__name__} in the SQLite backend"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` for a value read back from sqlite3."""
    if isinstance(value, bytes):
        if not value:
            return value
        tag, payload = value[0], value[1:]
        if tag == _TAG_BYTES:
            return payload
        if tag == _TAG_BIG_INT:
            return int.from_bytes(payload, "big")
        if tag == _TAG_BIG_NEG_INT:
            return -int.from_bytes(payload, "big")
        # Unknown tag: a foreign blob written outside the adapter.
        return value
    return value


def _decode_row(row: tuple) -> tuple:
    return tuple(decode_value(value) for value in row)


# ---------------------------------------------------------------------------
# AST -> SQLite SQL rendering
# ---------------------------------------------------------------------------
def _quote_identifier(name: str) -> str:
    return '"%s"' % name.replace('"', '""')


class _Renderer:
    """Renders one statement to (sql, params); literals become ``?`` binds.

    Binding every literal as a parameter side-steps SQL-literal syntax for
    bytes/bigint ciphertexts entirely and funnels each value through the
    storage codec exactly once.
    """

    def __init__(self) -> None:
        self.params: list[Any] = []

    # -- statements -----------------------------------------------------
    def statement(self, node: ast.Statement) -> str:
        if isinstance(node, ast.Select):
            return self._select(node)
        if isinstance(node, ast.Insert):
            return self._insert(node)
        if isinstance(node, ast.Update):
            return self._update(node)
        if isinstance(node, ast.Delete):
            return self._delete(node)
        raise SQLExecutionError(
            f"unsupported statement type {type(node).__name__} for the SQLite backend"
        )

    def _select(self, node: ast.Select) -> str:
        parts = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self._select_item(item) for item in node.items))
        if node.from_clause is not None:
            parts.append("FROM " + self._from(node.from_clause))
        if node.where is not None:
            parts.append("WHERE " + self.expr(node.where))
        if node.group_by:
            parts.append("GROUP BY " + ", ".join(self.expr(g) for g in node.group_by))
        if node.having is not None:
            parts.append("HAVING " + self.expr(node.having))
        if node.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    f"{self._order_expr(o.expr)} {'ASC' if o.ascending else 'DESC'}"
                    for o in node.order_by
                )
            )
        if node.limit is not None:
            parts.append(f"LIMIT {int(node.limit)}")
            if node.offset is not None:
                parts.append(f"OFFSET {int(node.offset)}")
        elif node.offset is not None:
            # SQLite requires a LIMIT clause to attach an OFFSET to.
            parts.append(f"LIMIT -1 OFFSET {int(node.offset)}")
        return " ".join(parts)

    def _select_item(self, item: ast.SelectItem) -> str:
        rendered = self.expr(item.expr)
        if item.alias:
            rendered += f" AS {_quote_identifier(item.alias)}"
        return rendered

    def _order_expr(self, expr: ast.Expression) -> str:
        # ORDER BY <integer literal> is positional in both engines; keep it
        # inline, a ? parameter would sort by the constant instead.
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            return str(expr.value)
        return self.expr(expr)

    def _from(self, clause: ast.FromClause) -> str:
        if isinstance(clause, ast.TableRef):
            rendered = _quote_identifier(clause.name)
            if clause.alias:
                rendered += f" AS {_quote_identifier(clause.alias)}"
            return rendered
        if isinstance(clause, ast.Join):
            left = self._from(clause.left)
            right = self._from(clause.right)
            join = "LEFT JOIN" if clause.join_type == "LEFT" else "INNER JOIN"
            on = f" ON {self.expr(clause.condition)}" if clause.condition is not None else ""
            return f"{left} {join} {right}{on}"
        raise SQLExecutionError(f"unsupported FROM clause {clause!r}")

    def _insert(self, node: ast.Insert) -> str:
        columns = ""
        if node.columns:
            columns = " (" + ", ".join(_quote_identifier(c) for c in node.columns) + ")"
        rows = ", ".join(
            "(" + ", ".join(self.expr(value) for value in row) + ")" for row in node.rows
        )
        return f"INSERT INTO {_quote_identifier(node.table)}{columns} VALUES {rows}"

    def _update(self, node: ast.Update) -> str:
        sets = ", ".join(
            f"{_quote_identifier(column)} = {self.expr(expr)}"
            for column, expr in node.assignments
        )
        where = f" WHERE {self.expr(node.where)}" if node.where is not None else ""
        return f"UPDATE {_quote_identifier(node.table)} SET {sets}{where}"

    def _delete(self, node: ast.Delete) -> str:
        where = f" WHERE {self.expr(node.where)}" if node.where is not None else ""
        return f"DELETE FROM {_quote_identifier(node.table)}{where}"

    # -- expressions ----------------------------------------------------
    def expr(self, node: ast.Expression) -> str:
        if isinstance(node, ast.Literal):
            self.params.append(encode_value(node.value))
            return "?"
        if isinstance(node, ast.Placeholder):
            raise SQLExecutionError(
                "unbound ? placeholder reached the SQLite backend; bind parameters first"
            )
        if isinstance(node, ast.ColumnRef):
            if node.table:
                return f"{_quote_identifier(node.table)}.{_quote_identifier(node.name)}"
            return _quote_identifier(node.name)
        if isinstance(node, ast.Star):
            return f"{_quote_identifier(node.table)}.*" if node.table else "*"
        if isinstance(node, ast.BinaryOp):
            return f"({self.expr(node.left)} {node.op} {self.expr(node.right)})"
        if isinstance(node, ast.UnaryOp):
            return f"({node.op} {self.expr(node.operand)})"
        if isinstance(node, ast.FunctionCall):
            inner = ", ".join(self.expr(a) for a in node.args)
            if node.distinct:
                inner = "DISTINCT " + inner
            return f"{node.name.upper()}({inner})"
        if isinstance(node, ast.InList):
            op = "NOT IN" if node.negated else "IN"
            items = ", ".join(self.expr(i) for i in node.items)
            return f"({self.expr(node.expr)} {op} ({items}))"
        if isinstance(node, ast.Between):
            op = "NOT BETWEEN" if node.negated else "BETWEEN"
            return (
                f"({self.expr(node.expr)} {op} "
                f"{self.expr(node.low)} AND {self.expr(node.high)})"
            )
        if isinstance(node, ast.Like):
            op = "NOT LIKE" if node.negated else "LIKE"
            return f"({self.expr(node.expr)} {op} {self.expr(node.pattern)})"
        if isinstance(node, ast.IsNull):
            op = "IS NOT NULL" if node.negated else "IS NULL"
            return f"({self.expr(node.expr)} {op})"
        raise SQLExecutionError(f"cannot render expression {node!r} for SQLite")


def _sqlite_column_type(column: ColumnDef) -> str:
    """Map an engine type to the SQLite type name carrying the right affinity.

    BLOB columns must keep BLOB (no-conversion) affinity so tagged ciphertext
    encodings are stored verbatim; numeric affinities mirror the coercions
    :meth:`repro.sql.types.DataType.coerce` applies in the in-memory engine.
    """
    return column.data_type.sqlite_affinity()


def _render_create_table(node: ast.CreateTable) -> str:
    # PRIMARY KEY / NOT NULL are deliberately not forwarded: the in-memory
    # engine does not enforce them, and "INTEGER PRIMARY KEY" would alias
    # SQLite's rowid (NULL inserts would auto-number instead of storing NULL).
    columns = ", ".join(
        f"{_quote_identifier(c.name)} {_sqlite_column_type(c)}" for c in node.columns
    )
    exists = "IF NOT EXISTS " if node.if_not_exists else ""
    return f"CREATE TABLE {exists}{_quote_identifier(node.table)} ({columns})"


# ---------------------------------------------------------------------------
# UDF bridging
# ---------------------------------------------------------------------------
def _wrap_scalar(func: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any) -> Any:
        return encode_value(func(*(decode_value(a) for a in args)))

    return wrapper


def _make_aggregate_class(
    initial: Callable[[], Any],
    step: Callable[[Any, Any], Any],
    finalize: Callable[[Any], Any],
):
    class _Aggregate:
        def __init__(self) -> None:
            self.state = initial()

        def step(self, *args: Any) -> None:
            value = decode_value(args[0]) if args else None
            if value is None:
                # SQL aggregates skip NULLs; matches FunctionRegistry's
                # skip_nulls=True default used by every CryptDB UDF.
                return
            self.state = step(self.state, value)

        def finalize(self) -> Any:
            return encode_value(finalize(self.state))

    return _Aggregate


def _unicode_like(pattern: Any, value: Any) -> Any:
    """``value LIKE pattern`` with the engine's Unicode-aware case folding.

    SQLite calls the registered like() as ``like(pattern, value)``.  NULL on
    either side yields NULL, as in standard SQL.
    """
    if pattern is None or value is None:
        return None
    return 1 if like_to_regex(str(pattern)).match(str(value)) else 0


# ---------------------------------------------------------------------------
# Transactions / table shims
# ---------------------------------------------------------------------------
class _SQLiteTransactions:
    """The ``transactions.in_transaction`` surface the proxy relies on."""

    def __init__(self, connection: sqlite3.Connection):
        self._connection = connection

    @property
    def in_transaction(self) -> bool:
        return self._connection.in_transaction


class SQLiteTable:
    """Per-table handle: index creation and row counts, sqlite3-backed."""

    def __init__(self, backend: "SQLiteBackend", name: str):
        self._backend = backend
        self.name = name

    def create_index(self, column: str, ordered: bool = False) -> None:
        # SQLite b-tree indexes serve both equality and range scans, so the
        # engine's hash/ordered distinction collapses to one index kind.
        index_name = f"idx_{self.name}_{column}"
        self._backend.connection.execute(
            f"CREATE INDEX IF NOT EXISTS {_quote_identifier(index_name)} "
            f"ON {_quote_identifier(self.name)} ({_quote_identifier(column)})"
        )

    def row_count(self) -> int:
        cursor = self._backend.connection.execute(
            f"SELECT COUNT(*) FROM {_quote_identifier(self.name)}"
        )
        return int(cursor.fetchone()[0])

    @property
    def column_names(self) -> list[str]:
        cursor = self._backend.connection.execute(
            f"PRAGMA table_info({_quote_identifier(self.name)})"
        )
        return [row[1] for row in cursor.fetchall()]

    def has_column(self, name: str) -> bool:
        return name in self.column_names

    def storage_bytes(self) -> int:
        """Approximate payload bytes, mirroring the engine's estimate."""
        columns = self.column_names
        if not columns:
            return 0
        parts = " + ".join(
            f"COALESCE(LENGTH({_quote_identifier(c)}), 1)" for c in columns
        )
        cursor = self._backend.connection.execute(
            f"SELECT COALESCE(SUM({parts}), 0) FROM {_quote_identifier(self.name)}"
        )
        return int(cursor.fetchone()[0])


# ---------------------------------------------------------------------------
# The adapter
# ---------------------------------------------------------------------------
class SQLiteBackend:
    """Backend adapter over a ``sqlite3`` database (in-memory by default)."""

    def __init__(self, path: str = ":memory:", allow_existing: bool = False):
        self.path = path
        # isolation_level=None turns off the driver's implicit transaction
        # management: BEGIN/COMMIT/ROLLBACK pass through exactly as issued,
        # matching how the proxy drives the in-memory engine.
        #
        # check_same_thread=False: the proxy is single-threaded by contract
        # (DB-API threadsafety 1) and whoever shares it serialises access --
        # ``repro.server`` builds the backend on its event-loop thread and
        # runs every statement on one executor thread behind the admission
        # lock, which the driver's creating-thread check would refuse.
        self.connection = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        if not allow_existing and path != ":memory:" and self.table_names():
            # A populated database file holds ciphertexts written under
            # metadata (onion levels, anonymised names, schema version) that
            # only the proxy's durable catalog records.  Silently reattaching
            # with a fresh proxy would read them as garbage -- refuse unless
            # the caller explicitly opted in (the catalog recovery path does).
            self.connection.close()
            from repro.api.exceptions import OperationalError

            raise OperationalError(
                f"existing encrypted database at {path!r} requires catalog=... "
                "(recover the proxy metadata from its write-ahead log, or pass "
                "allow_existing=True to take responsibility for the mismatch)"
            )
        # SQLite's built-in LIKE folds case for ASCII only; the in-memory
        # engine (like MySQL's ci collations) folds the full Unicode range.
        # Overriding the like() function keeps the two backends transparent
        # to each other for non-ASCII text.
        self.connection.create_function("like", 2, _unicode_like)
        self.transactions = _SQLiteTransactions(self.connection)
        self._statements_executed = 0

    # -- BackendAdapter protocol ----------------------------------------
    def execute(self, statement: StatementLike) -> ResultSet:
        if isinstance(statement, str):
            statement = parse_sql(statement)
        if faults.INJECTOR is not None:
            fire_backend_fault(self, statement)
        self._statements_executed += 1
        try:
            return self._execute_node(statement)
        except sqlite3.Error as exc:
            raise SQLExecutionError(f"sqlite backend: {exc}") from exc

    def execute_script(self, script: str) -> list[ResultSet]:
        return [self.execute(part) for part in split_statements(script)]

    def _execute_node(self, statement: ast.Statement) -> ResultSet:
        if isinstance(statement, ast.CreateTable):
            self.connection.execute(_render_create_table(statement))
            return ResultSet([], [], 0)
        if isinstance(statement, ast.DropTable):
            exists = "IF EXISTS " if statement.if_exists else ""
            self.connection.execute(
                f"DROP TABLE {exists}{_quote_identifier(statement.table)}"
            )
            return ResultSet([], [], 0)
        if isinstance(statement, ast.CreateIndex):
            table = self.table(statement.table)
            for column in statement.columns:
                table.create_index(column)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Begin):
            if self.connection.in_transaction:
                raise SQLExecutionError("a transaction is already in progress")
            self.connection.execute("BEGIN")
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Commit):
            if self.connection.in_transaction:
                self.connection.execute("COMMIT")
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Rollback):
            if self.connection.in_transaction:
                self.connection.execute("ROLLBACK")
            return ResultSet([], [], 0)

        renderer = _Renderer()
        sql = renderer.statement(statement)
        cursor = self.connection.execute(sql, renderer.params)
        if isinstance(statement, ast.Select):
            rows = [_decode_row(row) for row in cursor.fetchall()]
            columns = (
                [entry[0] for entry in cursor.description] if cursor.description else []
            )
            return ResultSet(columns, rows)
        return ResultSet([], [], cursor.rowcount if cursor.rowcount > 0 else 0)

    def table(self, name: str) -> SQLiteTable:
        if not self.has_table(name):
            raise SQLExecutionError(f"no such table: {name}")
        return SQLiteTable(self, name)

    def has_table(self, name: str) -> bool:
        cursor = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?", (name,)
        )
        return cursor.fetchone() is not None

    def table_names(self) -> list[str]:
        cursor = self.connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
        )
        return [row[0] for row in cursor.fetchall()]

    def register_scalar_udf(
        self,
        name: str,
        func: Callable[..., Any],
        batch: Optional[Callable[..., list]] = None,
    ) -> None:
        # SQLite applies scalar functions row-at-a-time; the vectorized
        # variant has no hook here and is accepted only for signature parity.
        del batch
        self.connection.create_function(name, -1, _wrap_scalar(func))

    def register_aggregate_udf(
        self,
        name: str,
        initial: Callable[[], Any],
        step: Callable[[Any, Any], Any],
        finalize: Callable[[Any], Any],
    ) -> None:
        self.connection.create_aggregate(
            name, 1, _make_aggregate_class(initial, step, finalize)
        )

    def storage_bytes(self) -> int:
        page_size = self.connection.execute("PRAGMA page_size").fetchone()[0]
        page_count = self.connection.execute("PRAGMA page_count").fetchone()[0]
        freelist = self.connection.execute("PRAGMA freelist_count").fetchone()[0]
        return int(page_size) * (int(page_count) - int(freelist))

    # -- statistics ------------------------------------------------------
    @property
    def statements_executed(self) -> int:
        return self._statements_executed

    def row_counts(self) -> dict[str, int]:
        return {name: self.table(name).row_count() for name in self.table_names()}

    def insert_row(self, table: str, values: dict[str, Any]) -> int:
        """Insert a row bypassing the parser (data-loader parity helper)."""
        self.execute(
            ast.Insert(table, list(values), [[ast.Literal(v) for v in values.values()]])
        )
        return int(self.connection.execute("SELECT last_insert_rowid()").fetchone()[0])

    def close(self) -> None:
        self.connection.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SQLiteBackend({self.path!r})"
