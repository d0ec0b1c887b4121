"""The strawman design used as a baseline in Figure 11.

The strawman encrypts every column with RND only and, for every query,
decrypts the relevant data on the DBMS server with a UDF, evaluates the query
over the resulting plaintext, and re-encrypts when writing.  Because the
stored ciphertexts are probabilistic, the DBMS's indexes are useless, and
every predicate turns into a per-row UDF decryption -- which is why the
strawman loses to CryptDB on essentially every query type despite offering
*less* security.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.schema import ProxySchema
from repro.crypto.keys import KeyManager, MasterKey
from repro.crypto.rnd import RND
from repro.errors import ProxyError, UnsupportedQueryError
from repro.sql import ast_nodes as ast
from repro.sql.engine import Database
from repro.sql.executor import ResultSet
from repro.sql.parser import parse_sql
from repro.sql.types import BLOB, ColumnDef

_DECRYPT = "STRAWMAN_DECRYPT"


class StrawmanProxy:
    """Encrypt-everything-with-RND baseline with server-side UDF decryption."""

    def __init__(self, db: Optional[Database] = None, master_key: Optional[MasterKey] = None):
        self.db = db if db is not None else Database()
        self.master_key = master_key if master_key is not None else MasterKey.generate()
        self.keys = KeyManager(self.master_key)
        # The strawman stores no Add onion, so the HOM slot count is moot.
        self.schema = ProxySchema(hom_slots=1)
        self._rnd_cache: dict[tuple[str, str], RND] = {}
        self.db.register_scalar_udf(_DECRYPT, self._udf_decrypt)

    # -- helpers -----------------------------------------------------------
    def _rnd_for(self, table: str, column: str) -> RND:
        key = (table, column)
        if key not in self._rnd_cache:
            self._rnd_cache[key] = RND(self.keys.key_for(table, column, "strawman", "RND"))
        return self._rnd_cache[key]

    @staticmethod
    def _udf_decrypt(key: Optional[bytes], ciphertext: Optional[bytes], iv: Optional[bytes]):
        if ciphertext is None:
            return None
        raw = RND(key).decrypt_bytes(ciphertext, iv)
        marker, payload = raw[:1], raw[1:]
        if marker == b"i":
            return int.from_bytes(payload, "big", signed=True)
        return payload.decode("utf-8")

    def _encode(self, value) -> bytes:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, int):
            return b"i" + value.to_bytes(16, "big", signed=True)
        return b"s" + str(value).encode("utf-8")

    # -- schema --------------------------------------------------------------
    def create_table(self, sql_or_statement: Union[str, ast.CreateTable]) -> None:
        statement = (
            parse_sql(sql_or_statement) if isinstance(sql_or_statement, str) else sql_or_statement
        )
        if not isinstance(statement, ast.CreateTable):
            raise ProxyError("create_table expects a CREATE TABLE statement")
        meta = self.schema.add_table(statement.table, statement.columns)
        columns: list[ColumnDef] = []
        for column_def in statement.columns:
            column = meta.column(column_def.name)
            columns.append(ColumnDef(f"C{column.index}_data", BLOB()))
            columns.append(ColumnDef(f"C{column.index}_IV", BLOB()))
        self.db.execute(ast.CreateTable(meta.anon_name, columns, statement.if_not_exists))

    # -- execution ---------------------------------------------------------------
    def execute(self, sql_or_statement: Union[str, ast.Statement]) -> ResultSet:
        statement = (
            parse_sql(sql_or_statement)
            if isinstance(sql_or_statement, str)
            else sql_or_statement
        )
        if isinstance(statement, ast.CreateTable):
            self.create_table(statement)
            return ResultSet([], [], 0)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return self.db.execute(statement)
        raise UnsupportedQueryError(
            f"strawman does not support {type(statement).__name__} statements"
        )

    def _column_exprs(self, table: str):
        """Server-side decryption expression for every column of a table."""
        meta = self.schema.table(table)
        expressions = {}
        for name in meta.column_names():
            column = meta.column(name)
            key = self.keys.key_for(table, name, "strawman", "RND")
            expressions[name] = ast.FunctionCall(
                _DECRYPT,
                [
                    ast.Literal(key),
                    ast.ColumnRef(f"C{column.index}_data"),
                    ast.ColumnRef(f"C{column.index}_IV"),
                ],
            )
        return expressions

    def _rewrite_expr(self, expr: ast.Expression, exprs) -> ast.Expression:
        if isinstance(expr, ast.ColumnRef):
            if expr.name not in exprs:
                raise ProxyError(f"unknown column {expr.name}")
            return exprs[expr.name]
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op, self._rewrite_expr(expr.left, exprs), self._rewrite_expr(expr.right, exprs)
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._rewrite_expr(expr.operand, exprs))
        if isinstance(expr, ast.FunctionCall):
            return ast.FunctionCall(
                expr.name,
                [self._rewrite_expr(a, exprs) if not isinstance(a, ast.Star) else a for a in expr.args],
                expr.distinct,
            )
        if isinstance(expr, ast.InList):
            return ast.InList(self._rewrite_expr(expr.expr, exprs), expr.items, expr.negated)
        if isinstance(expr, ast.Between):
            return ast.Between(
                self._rewrite_expr(expr.expr, exprs), expr.low, expr.high, expr.negated
            )
        if isinstance(expr, ast.Like):
            return ast.Like(self._rewrite_expr(expr.expr, exprs), expr.pattern, expr.negated)
        if isinstance(expr, ast.IsNull):
            return ast.IsNull(self._rewrite_expr(expr.expr, exprs), expr.negated)
        return expr

    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        meta = self.schema.table(statement.table)
        columns = statement.columns or meta.column_names()
        rows = []
        anon_columns: list[str] = []
        for row in statement.rows:
            values = {}
            for name, expr in zip(columns, row):
                if not isinstance(expr, ast.Literal):
                    raise UnsupportedQueryError("strawman INSERT values must be constants")
                column = meta.column(name)
                if expr.value is None:
                    values[f"C{column.index}_data"] = None
                    values[f"C{column.index}_IV"] = None
                else:
                    iv = RND.generate_iv()
                    rnd = self._rnd_for(statement.table, name)
                    values[f"C{column.index}_data"] = rnd.encrypt_bytes(self._encode(expr.value), iv)
                    values[f"C{column.index}_IV"] = iv
            if not anon_columns:
                anon_columns = list(values)
            rows.append([ast.Literal(values[c]) for c in anon_columns])
        return self.db.execute(ast.Insert(meta.anon_name, anon_columns, rows))

    def _execute_select(self, statement: ast.Select) -> ResultSet:
        if not isinstance(statement.from_clause, ast.TableRef):
            raise UnsupportedQueryError("strawman supports single-table SELECTs only")
        table = statement.from_clause.name
        meta = self.schema.table(table)
        exprs = self._column_exprs(table)

        items = []
        names = []
        for item in statement.items:
            if isinstance(item.expr, ast.Star):
                for name in meta.column_names():
                    items.append(ast.SelectItem(exprs[name], None))
                    names.append(name)
                continue
            label = item.alias or item.expr.to_sql()
            if isinstance(item.expr, ast.ColumnRef):
                label = item.alias or item.expr.name
            items.append(ast.SelectItem(self._rewrite_expr(item.expr, exprs), None))
            names.append(label)

        where = self._rewrite_expr(statement.where, exprs) if statement.where else None
        group_by = [self._rewrite_expr(g, exprs) for g in statement.group_by]
        order_by = [
            ast.OrderItem(self._rewrite_expr(o.expr, exprs), o.ascending)
            for o in statement.order_by
        ]
        rewritten = ast.Select(
            items=items,
            from_clause=ast.TableRef(meta.anon_name, statement.from_clause.alias),
            where=where,
            group_by=group_by,
            having=self._rewrite_expr(statement.having, exprs) if statement.having else None,
            order_by=order_by,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
        )
        result = self.db.execute(rewritten)
        return ResultSet(names, result.rows, result.rowcount)

    def _execute_update(self, statement: ast.Update) -> ResultSet:
        meta = self.schema.table(statement.table)
        exprs = self._column_exprs(statement.table)
        assignments = []
        for name, expr in statement.assignments:
            column = meta.column(name)
            if isinstance(expr, ast.Literal):
                iv = RND.generate_iv()
                rnd = self._rnd_for(statement.table, name)
                ciphertext = (
                    None if expr.value is None else rnd.encrypt_bytes(self._encode(expr.value), iv)
                )
                assignments.append((f"C{column.index}_data", ast.Literal(ciphertext)))
                assignments.append((f"C{column.index}_IV", ast.Literal(iv)))
            else:
                # Compute over the decrypted value server-side, then the proxy
                # must re-encrypt -- approximated by a read-modify-write.
                raise UnsupportedQueryError(
                    "strawman increments require a SELECT followed by an UPDATE"
                )
        where = self._rewrite_expr(statement.where, exprs) if statement.where else None
        return self.db.execute(ast.Update(meta.anon_name, assignments, where))

    def _execute_delete(self, statement: ast.Delete) -> ResultSet:
        meta = self.schema.table(statement.table)
        exprs = self._column_exprs(statement.table)
        where = self._rewrite_expr(statement.where, exprs) if statement.where else None
        return self.db.execute(ast.Delete(meta.anon_name, where))
