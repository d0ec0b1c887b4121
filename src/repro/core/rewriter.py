"""Query analysis and rewriting onto encrypted onions (§3.2, §3.3).

For every incoming statement the rewriter:

1. determines the computation classes each referenced column requires;
2. lists the onion adjustments (layer strips, JOIN-ADJ re-keys) needed to
   bring columns to the required layers; :meth:`Rewriter.adjustment_update`
   turns each into its server-side UDF UPDATE;
3. rewrites the statement itself: table and column names are replaced by
   their anonymised counterparts, constants by bind-time slots (a literal
   binds exactly like a ``?``), LIKE by SEARCH-token UDF calls, SUM by the
   Paillier UDF aggregate, and equi-joins by comparisons over the JOIN-ADJ
   components;
4. emits a decryption plan describing how the proxy should decrypt the
   result set before returning it to the application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core import udfs
from repro.core.encryptor import Encryptor
from repro.core.joins import JoinManager
from repro.core.onion import (
    ComputationClass,
    EncryptionScheme,
    Onion,
    is_at_least,
    requirement_for,
)
from repro.core.schema import ColumnMeta, HomGroup, ProxySchema, TableMeta
from repro.errors import ProxyError, UnsupportedQueryError
from repro.sql import ast_nodes as ast


@dataclass
class OutputSpec:
    """How one output column of a rewritten SELECT must be post-processed."""

    kind: str                      # plain | column | hom_sum | ope_agg | avg
    name: str
    source_index: int
    column: Optional[ColumnMeta] = None
    onion: Optional[Onion] = None
    level: Optional[EncryptionScheme] = None
    iv_index: Optional[int] = None


@dataclass
class ParamSlot:
    """How one bound value occurrence is encrypted at execution time.

    The rewriter leaves a mutable :class:`~repro.sql.ast_nodes.Literal` node
    (``target``) in the rewritten statement for every place a ``?`` value or
    a literal constant must appear; binding fills those nodes in, so
    prepare-once/execute-many only pays for encrypting the values, never for
    re-parsing or re-rewriting, and no plan ever embeds a ciphertext.
    """

    #: Zero-based position in the bound values: the statement's own ``?``
    #: parameters first, then its lifted literals (:attr:`RewritePlan.literals`).
    index: int
    kind: str                      # plain | constant | row_value | hom_delta | hom_pack
    target: ast.Literal            # literal node in the rewritten statement
    column: Optional[ColumnMeta] = None
    onion: Optional[Onion] = None
    level: Optional[EncryptionScheme] = None
    part: Optional[str] = None     # row_value: which anonymised column
    sign: int = 1                  # hom_delta: +1 for ``c + ?``, -1 for ``c - ?``
    #: hom_pack: the whole packed group cell, slot-ordered.  Each entry is
    #: ``(member column, value index)``; binding gathers the member values
    #: and encrypts one packed ciphertext.
    pack: Optional[list] = None


@dataclass
class HomRmwSpec:
    """A proxy-driven read-modify-write of one packed Add group cell.

    An absolute ``SET member = v`` cannot clear one slot of a shared packed
    ciphertext homomorphically, so the rewriter records the reassigned slots
    here and the proxy performs §3.3's SELECT-then-UPDATE strategy at
    execution time: read the matching rows' packed cells, splice the slots
    in plaintext, write fresh ciphertexts back keyed on the old cell.
    """

    anon_table: str
    group_anon_name: str
    #: slot-ordered: ``(member column, value index)``
    assignments: list = field(default_factory=list)


@dataclass
class RewritePlan:
    """Everything the proxy needs to execute one application statement."""

    statement: Optional[ast.Statement]
    #: Onion adjustments to run before the statement, as ops:
    #: ``("strip", table, column, onion-value, layer-value)`` or ``("join",
    #: table, column, delta-int)``.  :meth:`Rewriter.adjustment_update`
    #: turns one into its server UPDATE; the durable catalog logs them as
    #: they are (keys re-derive from the master key, and the delta is the
    #: public value the server sees anyway).
    adjustments: list[tuple] = field(default_factory=list)
    output: list[OutputSpec] = field(default_factory=list)
    computations: dict[tuple[str, str], set[ComputationClass]] = field(default_factory=dict)
    proxy_order: list[tuple[int, bool]] = field(default_factory=list)
    passthrough: bool = False
    param_slots: list[ParamSlot] = field(default_factory=list)
    #: Packed-group rewrites the proxy must run *before* the main statement.
    hom_rmw: list[HomRmwSpec] = field(default_factory=list)
    #: The statement's own ``?`` count; lifted literals are numbered from here.
    param_count: int = 0
    #: Literal constants the statement supplies itself, bound after its
    #: ``?`` values on every execution, so each one gets fresh RND IVs and
    #: Paillier randomness exactly like a parameter.
    literals: list = field(default_factory=list)


class _Scope:
    """Column resolution for the tables appearing in one statement."""

    def __init__(self, schema: ProxySchema):
        self.schema = schema
        self.entries: list[tuple[str, TableMeta, Optional[str]]] = []
        # entries: (qualifier used in the query, table meta, alias or None)

    def add(self, table_name: str, alias: Optional[str]) -> None:
        meta = self.schema.table(table_name)
        qualifier = alias or table_name
        self.entries.append((qualifier, meta, alias))

    def rewritten_qualifier(self, qualifier: str) -> str:
        for existing, meta, alias in self.entries:
            if existing == qualifier:
                return alias or meta.anon_name
        raise ProxyError(f"unknown table or alias {qualifier}")

    def resolve(self, ref: ast.ColumnRef) -> Optional[tuple[ColumnMeta, str]]:
        """Resolve a column reference to its metadata and rewritten qualifier."""
        if ref.table is not None:
            for qualifier, meta, alias in self.entries:
                if qualifier == ref.table:
                    if meta.has_column(ref.name):
                        return meta.column(ref.name), (alias or meta.anon_name)
                    raise ProxyError(f"table {meta.name} has no column {ref.name}")
            raise ProxyError(f"unknown table or alias {ref.table}")
        matches = []
        for qualifier, meta, alias in self.entries:
            if meta.has_column(ref.name):
                matches.append((meta.column(ref.name), alias or meta.anon_name))
        if not matches:
            raise ProxyError(f"unknown column {ref.name}")
        if len(matches) > 1:
            raise ProxyError(f"ambiguous column {ref.name}")
        return matches[0]

    def all_columns(self, table_filter: Optional[str] = None) -> list[tuple[ColumnMeta, str]]:
        columns = []
        for qualifier, meta, alias in self.entries:
            if table_filter is not None and qualifier != table_filter:
                continue
            for name in meta.column_names():
                columns.append((meta.column(name), alias or meta.anon_name))
        return columns


class Rewriter:
    """Rewrites application statements into their encrypted form."""

    def __init__(
        self,
        schema: ProxySchema,
        encryptor: Encryptor,
        joins: JoinManager,
        in_proxy_processing: bool = False,
    ):
        self.schema = schema
        self.encryptor = encryptor
        self.joins = joins
        self.in_proxy_processing = in_proxy_processing
        self.onion_adjustments = 0

    # ==================================================================
    # public entry point
    # ==================================================================
    def rewrite(self, statement: ast.Statement) -> RewritePlan:
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return RewritePlan(statement=statement, passthrough=True)
        plan = RewritePlan(statement=None, param_count=ast.count_placeholders(statement))
        if isinstance(statement, ast.Select):
            return self._rewrite_select(statement, plan)
        if isinstance(statement, ast.Insert):
            return self._rewrite_insert(statement, plan)
        if isinstance(statement, ast.Update):
            return self._rewrite_update(statement, plan)
        if isinstance(statement, ast.Delete):
            return self._rewrite_delete(statement, plan)
        raise UnsupportedQueryError(
            f"statement type {type(statement).__name__} must be handled by the proxy directly"
        )

    # ==================================================================
    # requirement tracking / onion adjustment
    # ==================================================================
    def _record(self, plan: RewritePlan, column: ColumnMeta, computation: ComputationClass) -> None:
        plan.computations.setdefault((column.table, column.name), set()).add(computation)

    def _require(
        self,
        plan: RewritePlan,
        column: ColumnMeta,
        computation: ComputationClass,
    ) -> tuple[Onion, EncryptionScheme]:
        """Ensure the column can support ``computation``; emit adjustments.

        Returns the onion and the layer the column will be at when the
        rewritten query executes.
        """
        self._record(plan, column, computation)
        if column.plaintext:
            raise ProxyError(f"column {column.table}.{column.name} is stored in plaintext")
        requirement = requirement_for(computation)
        if requirement is None:
            # Projection-only reads (COUNT) observe nothing but NULL-ness,
            # which is identical across onions even while HOM-stale, so the
            # Eq onion serves them at whatever level it is.
            state = column.onion_state(Onion.EQ)
            return Onion.EQ, state.level
        onion, needed = requirement
        self._check_hom_fresh(column, onion, computation)
        if not column.has_onion(onion):
            raise UnsupportedQueryError(
                f"column {column.table}.{column.name} has no {onion.value} onion "
                f"(needed for {computation.value})"
            )
        state = column.onion_state(onion)
        if is_at_least(state.level, needed, onion):
            return onion, state.level
        if not column.allows_level(onion, needed):
            raise UnsupportedQueryError(
                f"developer policy forbids lowering {column.table}.{column.name} "
                f"to {needed.value}"
            )
        removed = self.schema.lower_onion(column.table, column.name, onion, needed)
        for layer in removed:
            if layer is EncryptionScheme.OPE:
                # OPE -> OPE-JOIN is a key-sharing policy change, not a
                # physical layer: nothing to strip at the server.
                continue
            plan.adjustments.append(
                ("strip", column.table, column.name, onion.value, layer.value)
            )
            self.onion_adjustments += 1
        return onion, needed

    @staticmethod
    def _check_hom_fresh(column: ColumnMeta, onion: Onion, computation: ComputationClass) -> None:
        """Refuse server-side reads of onions left stale by HOM increments.

        After ``SET c = c + k`` only the Add onion holds the current value
        (§3.3); answering an equality/order/search predicate from the
        Eq/Ord/Search onions would silently return results computed over
        the pre-increment ciphertexts.  (NULL-ness-only reads -- COUNT and
        IS NULL -- stay correct on any onion and are not refused.)  The
        differential conformance harness flags exactly this class of
        transparency violation, so declare the query unsupported instead
        (the paper's alternative is a proxy-driven re-encryption pass).
        """
        if column.hom_stale_others and onion is not Onion.ADD:
            raise UnsupportedQueryError(
                f"column {column.table}.{column.name}: the {onion.value} onion is "
                f"stale after homomorphic increments; {computation.value} would be "
                "answered from pre-increment ciphertexts (re-encrypt to refresh)"
            )

    def adjustment_update(self, op: tuple) -> ast.Update:
        """The server UPDATE ... SET col = UDF(...) for one adjustment op."""
        kind, table, column_name = op[:3]
        column = self.schema.column(table, column_name)
        if kind == "join":
            state = column.onion_state(Onion.EQ)
            call = ast.FunctionCall(
                udfs.JOIN_ADJUST,
                [ast.ColumnRef(state.anon_name), ast.Literal(int(op[3]).to_bytes(32, "big"))],
            )
        elif kind == "strip":
            onion, layer = Onion(op[3]), EncryptionScheme(op[4])
            state = column.onion_state(onion)
            anon_col = ast.ColumnRef(state.anon_name)
            key = self.encryptor.layer_key(column, onion, layer)
            if layer is EncryptionScheme.RND:
                udf_name = udfs.DECRYPT_RND_EQ if onion is Onion.EQ else udfs.DECRYPT_RND_ORD
                call = ast.FunctionCall(
                    udf_name,
                    [ast.Literal(key), anon_col, ast.ColumnRef(column.iv_column)],
                )
            elif layer is EncryptionScheme.DET:
                call = ast.FunctionCall(udfs.DECRYPT_DET_EQ, [ast.Literal(key), anon_col])
            else:
                raise ProxyError(f"cannot strip layer {layer.value}")
        else:
            raise ProxyError(f"unknown adjustment op {kind!r}")
        return ast.Update(self.schema.table(table).anon_name, [(state.anon_name, call)], None)

    def _require_join(
        self, plan: RewritePlan, left: ColumnMeta, right: ColumnMeta
    ) -> None:
        """Bring two columns to the JOIN layer and make their keys match."""
        self._require(plan, left, ComputationClass.EQUI_JOIN)
        self._require(plan, right, ComputationClass.EQUI_JOIN)
        adjustments = self.joins.ensure_joinable(
            (left.table, left.name), (right.table, right.name)
        )
        for adjustment in adjustments:
            # The re-keying changes the JOIN-ADJ component of every stored
            # Eq ciphertext, so memoised encryptions for the column are stale.
            self.encryptor.cache.invalidate_eq(adjustment.table, adjustment.column)
            plan.adjustments.append(
                ("join", adjustment.table, adjustment.column, adjustment.delta)
            )
            self.onion_adjustments += 1

    # ==================================================================
    # constants and parameter placeholders
    # ==================================================================
    @staticmethod
    def _bindable(expr: ast.Expression) -> bool:
        """Literal constants and ``?`` placeholders are both bindable."""
        return isinstance(expr, (ast.Literal, ast.Placeholder))

    @staticmethod
    def _value_index(plan: RewritePlan, expr: ast.Expression) -> int:
        """The bind position of a constant: a ``?``'s own, or a lifted literal's."""
        if isinstance(expr, ast.Placeholder):
            return expr.index
        plan.literals.append(expr.value)
        return plan.param_count + len(plan.literals) - 1

    def _encrypted_constant(
        self,
        plan: RewritePlan,
        expr: ast.Expression,
        column: ColumnMeta,
        onion: Onion,
        level: EncryptionScheme,
    ) -> ast.Literal:
        """A bind-time slot encrypting one constant for ``onion`` at ``level``."""
        target = ast.Literal(None)
        plan.param_slots.append(
            ParamSlot(self._value_index(plan, expr), "constant", target, column, onion, level)
        )
        return target

    def _plain_constant(self, plan: RewritePlan, expr: ast.Expression) -> ast.Expression:
        """A bind-time slot for a plaintext-column literal or ``?``."""
        if not self._bindable(expr):
            return expr
        target = ast.Literal(None)
        plan.param_slots.append(ParamSlot(self._value_index(plan, expr), "plain", target))
        return target

    def _row_value_slots(
        self, plan: RewritePlan, index: int, column: ColumnMeta
    ) -> list[tuple[str, ast.Literal]]:
        """Bind-time onion encryptions of one row cell, value ``index``."""
        if column.plaintext:
            target = ast.Literal(None)
            plan.param_slots.append(ParamSlot(index, "plain", target))
            return [(column.name, target)]
        pairs: list[tuple[str, ast.Literal]] = []
        for part in self._anon_parts(column):
            target = ast.Literal(None)
            plan.param_slots.append(ParamSlot(index, "row_value", target, column, part=part))
            pairs.append((part, target))
        return pairs

    @staticmethod
    def _anon_parts(column: ColumnMeta) -> list[str]:
        """Anonymised DBMS columns storing one application column's value.

        The Add part lives in the table's shared group ciphertext and is
        written per *group* (INSERT) or through the read-modify-write path
        (UPDATE), never as a per-column part.
        """
        parts = [
            state.anon_name
            for onion, state in column.onions.items()
            if onion is not Onion.ADD
        ]
        if column.iv_column:
            parts.append(column.iv_column)
        return parts

    # ==================================================================
    # expression rewriting (predicates)
    # ==================================================================
    def _rewrite_predicate(
        self, expr: ast.Expression, scope: _Scope, plan: RewritePlan
    ) -> ast.Expression:
        if isinstance(expr, ast.BinaryOp) and expr.op in ("AND", "OR"):
            return ast.BinaryOp(
                expr.op,
                self._rewrite_predicate(expr.left, scope, plan),
                self._rewrite_predicate(expr.right, scope, plan),
            )
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            return ast.UnaryOp("NOT", self._rewrite_predicate(expr.operand, scope, plan))
        if isinstance(expr, ast.BinaryOp) and expr.op in ("=", "!=", "<", "<=", ">", ">="):
            return self._rewrite_comparison(expr, scope, plan)
        if isinstance(expr, ast.InList):
            return self._rewrite_in(expr, scope, plan)
        if isinstance(expr, ast.Between):
            return self._rewrite_between(expr, scope, plan)
        if isinstance(expr, ast.Like):
            return self._rewrite_like(expr, scope, plan)
        if isinstance(expr, ast.IsNull):
            return self._rewrite_is_null(expr, scope, plan)
        if isinstance(expr, ast.Literal):
            return expr
        if isinstance(expr, ast.FunctionCall):
            return self._rewrite_count_predicate(expr, scope, plan)
        raise UnsupportedQueryError(
            f"predicate {expr.to_sql()} cannot be evaluated over encrypted data"
        )

    def _resolve_or_none(
        self, expr: ast.Expression, scope: _Scope
    ) -> Optional[tuple[ColumnMeta, str]]:
        if isinstance(expr, ast.ColumnRef):
            return scope.resolve(expr)
        return None

    def _rewrite_comparison(
        self, expr: ast.BinaryOp, scope: _Scope, plan: RewritePlan
    ) -> ast.Expression:
        left_col = self._resolve_or_none(expr.left, scope)
        right_col = self._resolve_or_none(expr.right, scope)

        # column vs column: equi-join (or range join).
        if left_col is not None and right_col is not None:
            left_meta, left_qual = left_col
            right_meta, right_qual = right_col
            if left_meta.plaintext and right_meta.plaintext:
                return ast.BinaryOp(
                    expr.op,
                    ast.ColumnRef(left_meta.name, left_qual),
                    ast.ColumnRef(right_meta.name, right_qual),
                )
            if expr.op != "=":
                return self._rewrite_range_join(expr, left_col, right_col, plan)
            self._record(plan, left_meta, ComputationClass.EQUI_JOIN)
            self._record(plan, right_meta, ComputationClass.EQUI_JOIN)
            self._require_join(plan, left_meta, right_meta)
            left_ref = ast.ColumnRef(left_meta.onion_state(Onion.EQ).anon_name, left_qual)
            right_ref = ast.ColumnRef(right_meta.onion_state(Onion.EQ).anon_name, right_qual)
            return ast.BinaryOp(
                "=",
                ast.FunctionCall(udfs.ADJ_PART, [left_ref]),
                ast.FunctionCall(udfs.ADJ_PART, [right_ref]),
            )

        # column vs constant.
        column_side = left_col or right_col
        if column_side is None:
            if any(isinstance(node, ast.ColumnRef) for node in ast.walk_expression(expr)):
                # A function call or arithmetic over a column inside a
                # predicate: this is the "needs plaintext" class of Figure 9.
                for node in ast.walk_expression(expr):
                    if isinstance(node, ast.ColumnRef):
                        resolved = scope.resolve(node)
                        self._record(plan, resolved[0], ComputationClass.PLAINTEXT)
                raise UnsupportedQueryError(
                    f"predicate {expr.to_sql()} requires computation on an encrypted "
                    "column and cannot run on the DBMS server"
                )
            if any(isinstance(node, ast.Placeholder) for node in ast.walk_expression(expr)):
                raise UnsupportedQueryError(
                    f"predicate {expr.to_sql()}: a ? placeholder must be compared "
                    "against a column"
                )
            # constant vs constant: leave untouched.
            return expr
        column, qualifier = column_side
        constant_expr = expr.right if left_col is not None else expr.left
        if not self._bindable(constant_expr):
            raise UnsupportedQueryError(
                f"predicate {expr.to_sql()} mixes computation and comparison on a column"
            )
        if column.plaintext:
            new_ref = ast.ColumnRef(column.name, qualifier)
            constant = self._plain_constant(plan, constant_expr)
            if left_col is not None:
                return ast.BinaryOp(expr.op, new_ref, constant)
            return ast.BinaryOp(expr.op, constant, new_ref)

        if expr.op in ("=", "!="):
            onion, level = self._require(plan, column, ComputationClass.EQUALITY)
        else:
            onion, level = self._require(plan, column, ComputationClass.ORDER)
        encrypted = self._encrypted_constant(plan, constant_expr, column, onion, level)
        new_ref = ast.ColumnRef(column.onion_state(onion).anon_name, qualifier)
        if left_col is not None:
            return ast.BinaryOp(expr.op, new_ref, encrypted)
        return ast.BinaryOp(expr.op, encrypted, new_ref)

    def _rewrite_range_join(
        self,
        expr: ast.BinaryOp,
        left_col: tuple[ColumnMeta, str],
        right_col: tuple[ColumnMeta, str],
        plan: RewritePlan,
    ) -> ast.Expression:
        left_meta, left_qual = left_col
        right_meta, right_qual = right_col
        self._record(plan, left_meta, ComputationClass.RANGE_JOIN)
        self._record(plan, right_meta, ComputationClass.RANGE_JOIN)
        if (
            left_meta.ope_join_group is None
            or left_meta.ope_join_group != right_meta.ope_join_group
        ):
            raise UnsupportedQueryError(
                "range joins require the columns to be declared joinable ahead of "
                "time (declare_range_join), as OPE keys cannot be adjusted at runtime"
            )
        self._require(plan, left_meta, ComputationClass.ORDER)
        self._require(plan, right_meta, ComputationClass.ORDER)
        return ast.BinaryOp(
            expr.op,
            ast.ColumnRef(left_meta.onion_state(Onion.ORD).anon_name, left_qual),
            ast.ColumnRef(right_meta.onion_state(Onion.ORD).anon_name, right_qual),
        )

    def _rewrite_in(self, expr: ast.InList, scope: _Scope, plan: RewritePlan) -> ast.Expression:
        resolved = self._resolve_or_none(expr.expr, scope)
        if resolved is None:
            raise UnsupportedQueryError("IN requires a plain column on its left side")
        column, qualifier = resolved
        if column.plaintext:
            items = [self._plain_constant(plan, item) for item in expr.items]
            return ast.InList(ast.ColumnRef(column.name, qualifier), items, expr.negated)
        onion, level = self._require(plan, column, ComputationClass.EQUALITY)
        items = []
        for item in expr.items:
            if not self._bindable(item):
                raise UnsupportedQueryError("IN list items must be constants")
            items.append(self._encrypted_constant(plan, item, column, onion, level))
        return ast.InList(
            ast.ColumnRef(column.onion_state(onion).anon_name, qualifier), items, expr.negated
        )

    def _rewrite_between(self, expr: ast.Between, scope: _Scope, plan: RewritePlan) -> ast.Expression:
        resolved = self._resolve_or_none(expr.expr, scope)
        if resolved is None:
            raise UnsupportedQueryError("BETWEEN requires a plain column")
        column, qualifier = resolved
        if column.plaintext:
            return ast.Between(
                ast.ColumnRef(column.name, qualifier),
                self._plain_constant(plan, expr.low),
                self._plain_constant(plan, expr.high),
                expr.negated,
            )
        if not self._bindable(expr.low) or not self._bindable(expr.high):
            raise UnsupportedQueryError("BETWEEN bounds must be constants")
        onion, level = self._require(plan, column, ComputationClass.ORDER)
        return ast.Between(
            ast.ColumnRef(column.onion_state(onion).anon_name, qualifier),
            self._encrypted_constant(plan, expr.low, column, onion, level),
            self._encrypted_constant(plan, expr.high, column, onion, level),
            expr.negated,
        )

    def _rewrite_like(self, expr: ast.Like, scope: _Scope, plan: RewritePlan) -> ast.Expression:
        resolved = self._resolve_or_none(expr.expr, scope)
        if resolved is None:
            raise UnsupportedQueryError("LIKE requires a plain column")
        if isinstance(expr.pattern, ast.Placeholder):
            raise UnsupportedQueryError(
                "LIKE patterns cannot be ? parameters: the SEARCH rewrite depends "
                "on the pattern's wildcard shape, so the pattern must be a literal"
            )
        if not isinstance(expr.pattern, ast.Literal) or not isinstance(expr.pattern.value, str):
            raise UnsupportedQueryError(
                "LIKE with a non-constant pattern cannot run over encrypted data"
            )
        column, qualifier = resolved
        pattern = expr.pattern.value
        if column.plaintext:
            return ast.Like(ast.ColumnRef(column.name, qualifier), expr.pattern, expr.negated)
        stripped = pattern.strip("%").strip()
        if "%" in stripped or "_" in stripped or not stripped:
            self._record(plan, column, ComputationClass.PLAINTEXT)
            raise UnsupportedQueryError(
                f"LIKE pattern {pattern!r} is not a full-word search; SEARCH supports "
                "only full keywords (§3.1)"
            )
        if not pattern.startswith("%") and not pattern.endswith("%"):
            # No wildcards at all: this is an equality check.
            onion, level = self._require(plan, column, ComputationClass.EQUALITY)
            encrypted = self._encrypted_constant(
                plan, ast.Literal(stripped), column, onion, level
            )
            ref = ast.ColumnRef(column.onion_state(onion).anon_name, qualifier)
            comparison = ast.BinaryOp("=", ref, encrypted)
            return ast.UnaryOp("NOT", comparison) if expr.negated else comparison
        onion, _level = self._require(plan, column, ComputationClass.WORD_SEARCH)
        token = self.encryptor.search_token(column, stripped)
        call = ast.FunctionCall(
            udfs.SEARCH_MATCH,
            [
                ast.ColumnRef(column.onion_state(Onion.SEARCH).anon_name, qualifier),
                ast.Literal(token.left),
                ast.Literal(token.right),
                ast.Literal(token.prf_key),
            ],
        )
        return ast.UnaryOp("NOT", call) if expr.negated else call

    def _rewrite_is_null(self, expr: ast.IsNull, scope: _Scope, plan: RewritePlan) -> ast.Expression:
        resolved = self._resolve_or_none(expr.expr, scope)
        if resolved is None:
            raise UnsupportedQueryError("IS NULL requires a plain column")
        column, qualifier = resolved
        self._record(plan, column, ComputationClass.NONE)
        if column.plaintext:
            return ast.IsNull(ast.ColumnRef(column.name, qualifier), expr.negated)
        # NULL-ness is identical across onions (NULL + k stays NULL, so HOM
        # increments never change it); the Eq onion answers IS NULL correctly
        # even while the column is HOM-stale.
        state = column.onion_state(Onion.EQ)
        return ast.IsNull(ast.ColumnRef(state.anon_name, qualifier), expr.negated)

    def _rewrite_count_predicate(
        self, expr: ast.FunctionCall, scope: _Scope, plan: RewritePlan
    ) -> ast.Expression:
        raise UnsupportedQueryError(
            f"function {expr.name} in a WHERE clause requires plaintext processing"
        )

    # ==================================================================
    # SELECT
    # ==================================================================
    def _build_scope(self, from_clause: Optional[ast.FromClause]) -> _Scope:
        scope = _Scope(self.schema)
        clause = from_clause
        stack = []
        while isinstance(clause, ast.Join):
            stack.append(clause.right)
            clause = clause.left
        if isinstance(clause, ast.TableRef):
            stack.append(clause)
        for ref in reversed(stack):
            scope.add(ref.name, ref.alias)
        return scope

    def _rewrite_from(
        self, clause: Optional[ast.FromClause], scope: _Scope, plan: RewritePlan
    ) -> Optional[ast.FromClause]:
        if clause is None:
            return None
        if isinstance(clause, ast.TableRef):
            meta = self.schema.table(clause.name)
            return ast.TableRef(meta.anon_name, clause.alias)
        if isinstance(clause, ast.Join):
            left = self._rewrite_from(clause.left, scope, plan)
            right_meta = self.schema.table(clause.right.name)
            right = ast.TableRef(right_meta.anon_name, clause.right.alias)
            condition = None
            if clause.condition is not None:
                condition = self._rewrite_predicate(clause.condition, scope, plan)
            return ast.Join(left, right, condition, clause.join_type)
        raise ProxyError(f"unsupported FROM clause {clause!r}")

    def _rewrite_select(self, statement: ast.Select, plan: RewritePlan) -> RewritePlan:
        scope = self._build_scope(statement.from_clause)

        new_from = self._rewrite_from(statement.from_clause, scope, plan)
        new_where = (
            self._rewrite_predicate(statement.where, scope, plan)
            if statement.where is not None
            else None
        )

        items: list[ast.SelectItem] = []
        specs: list[OutputSpec] = []
        iv_requests: dict[tuple[str, str], int] = {}

        def add_item(expr: ast.Expression, name: str) -> int:
            items.append(ast.SelectItem(expr, None))
            return len(items) - 1

        for item in statement.items:
            expr = item.expr
            label = item.alias or (
                expr.name if isinstance(expr, ast.ColumnRef) else expr.to_sql()
            )
            if isinstance(expr, ast.Star):
                for column, qualifier in scope.all_columns(expr.table):
                    specs.append(
                        self._project_column(column, qualifier, column.name, add_item, plan)
                    )
                continue
            if isinstance(expr, ast.ColumnRef):
                column, qualifier = scope.resolve(expr)
                specs.append(self._project_column(column, qualifier, label, add_item, plan))
                continue
            if isinstance(expr, ast.Literal):
                index = add_item(expr, label)
                specs.append(OutputSpec("plain", label, index))
                continue
            if isinstance(expr, ast.FunctionCall):
                specs.append(
                    self._project_aggregate(expr, label, scope, plan, add_item)
                )
                continue
            raise UnsupportedQueryError(
                f"projection {expr.to_sql()} requires computation on encrypted data"
            )

        # GROUP BY
        new_group_by: list[ast.Expression] = []
        for group_expr in statement.group_by:
            if not isinstance(group_expr, ast.ColumnRef):
                raise UnsupportedQueryError("GROUP BY supports only plain columns")
            column, qualifier = scope.resolve(group_expr)
            if column.plaintext:
                new_group_by.append(ast.ColumnRef(column.name, qualifier))
                continue
            onion, _level = self._require(plan, column, ComputationClass.EQUALITY)
            new_group_by.append(ast.ColumnRef(column.onion_state(onion).anon_name, qualifier))

        # HAVING (only COUNT comparisons can run over ciphertext).
        new_having = None
        if statement.having is not None:
            new_having = self._rewrite_having(statement.having, scope, plan)

        # ORDER BY
        new_order: list[ast.OrderItem] = []
        proxy_order: list[tuple[int, bool]] = []
        for order in statement.order_by:
            if not isinstance(order.expr, ast.ColumnRef):
                raise UnsupportedQueryError("ORDER BY supports only plain columns")
            column, qualifier = scope.resolve(order.expr)
            if column.plaintext:
                new_order.append(ast.OrderItem(ast.ColumnRef(column.name, qualifier), order.ascending))
                continue
            output_index = _find_output(specs, column)
            if (
                self.in_proxy_processing
                and statement.limit is None
                and output_index is not None
            ):
                # §3.5.1 in-proxy processing: sort at the proxy instead of
                # revealing the OPE encryption to the server.
                self._record(plan, column, ComputationClass.NONE)
                proxy_order.append((output_index, order.ascending))
                continue
            onion, _level = self._require(plan, column, ComputationClass.ORDER)
            new_order.append(
                ast.OrderItem(
                    ast.ColumnRef(column.onion_state(onion).anon_name, qualifier),
                    order.ascending,
                )
            )

        # Later clauses (GROUP BY, ORDER BY) may have lowered an onion that a
        # projection planned to read at a higher level; the adjustments run
        # before the rewritten SELECT, so refresh each spec to the level the
        # data will actually be at when the query executes.
        for spec in specs:
            if spec.kind == "column" and spec.onion is not Onion.ADD:
                spec.level = spec.column.onion_state(spec.onion).level

        # Attach IV columns needed to decrypt RND-level projections.
        for spec in specs:
            if spec.kind == "column" and spec.level is EncryptionScheme.RND:
                assert spec.column is not None
                key = (spec.column.table, spec.column.name)
                if key not in iv_requests:
                    qualifier = _qualifier_of(scope, spec.column)
                    items.append(
                        ast.SelectItem(ast.ColumnRef(spec.column.iv_column, qualifier), None)
                    )
                    iv_requests[key] = len(items) - 1
                spec.iv_index = iv_requests[key]

        plan.statement = ast.Select(
            items=items,
            from_clause=new_from,
            where=new_where,
            group_by=new_group_by,
            having=new_having,
            order_by=new_order,
            limit=statement.limit,
            offset=statement.offset,
            distinct=statement.distinct,
        )
        plan.output = specs
        plan.proxy_order = proxy_order
        return plan

    def _project_column(
        self,
        column: ColumnMeta,
        qualifier: str,
        label: str,
        add_item,
        plan: RewritePlan,
    ) -> OutputSpec:
        self._record(plan, column, ComputationClass.NONE)
        if column.plaintext:
            index = add_item(ast.ColumnRef(column.name, qualifier), label)
            return OutputSpec("plain", label, index)
        if column.hom_stale_others and column.has_onion(Onion.ADD):
            # §3.3: after HOM increments only the Add onion is up to date.
            state = column.onion_state(Onion.ADD)
            index = add_item(ast.ColumnRef(state.anon_name, qualifier), label)
            return OutputSpec(
                "column", label, index, column=column, onion=Onion.ADD,
                level=EncryptionScheme.HOM,
            )
        state = column.onion_state(Onion.EQ)
        index = add_item(ast.ColumnRef(state.anon_name, qualifier), label)
        return OutputSpec(
            "column", label, index, column=column, onion=Onion.EQ, level=state.level
        )

    def _project_aggregate(
        self,
        expr: ast.FunctionCall,
        label: str,
        scope: _Scope,
        plan: RewritePlan,
        add_item,
    ) -> OutputSpec:
        name = expr.name.upper()
        if name == "COUNT":
            if not expr.args or isinstance(expr.args[0], ast.Star):
                index = add_item(ast.FunctionCall("COUNT", [ast.Star()]), label)
                return OutputSpec("plain", label, index)
            if not isinstance(expr.args[0], ast.ColumnRef):
                raise UnsupportedQueryError("COUNT supports only plain columns")
            column, qualifier = scope.resolve(expr.args[0])
            if column.plaintext:
                ref = ast.ColumnRef(column.name, qualifier)
            else:
                computation = (
                    ComputationClass.EQUALITY if expr.distinct else ComputationClass.NONE
                )
                onion, _ = self._require(plan, column, computation)
                ref = ast.ColumnRef(column.onion_state(onion).anon_name, qualifier)
            index = add_item(ast.FunctionCall("COUNT", [ref], expr.distinct), label)
            return OutputSpec("plain", label, index)

        if name in ("SUM", "AVG", "MIN", "MAX"):
            if len(expr.args) != 1 or not isinstance(expr.args[0], ast.ColumnRef):
                raise UnsupportedQueryError(f"{name} supports only a single plain column")
            column, qualifier = scope.resolve(expr.args[0])
            if column.plaintext:
                index = add_item(
                    ast.FunctionCall(name, [ast.ColumnRef(column.name, qualifier)]), label
                )
                return OutputSpec("plain", label, index)
            if name in ("SUM", "AVG"):
                onion, _ = self._require(plan, column, ComputationClass.ADDITION)
                ref = ast.ColumnRef(column.onion_state(Onion.ADD).anon_name, qualifier)
                index = add_item(ast.FunctionCall(udfs.HOM_SUM, [ref]), label)
                # AVG ships no COUNT item: COUNT over the shared packed column
                # would count rows where *any* group member is non-NULL; the
                # slot's count subfield is the correct divisor and comes for
                # free with the decrypted sum.
                kind = "hom_sum" if name == "SUM" else "avg"
                return OutputSpec(kind, label, index, column=column)
            if column.kind == "text":
                # The Ord onion orders text by its first four bytes only, and
                # MIN/MAX decode their answer from it: refuse rather than
                # return a truncated value (or lower the onion for nothing).
                raise UnsupportedQueryError(
                    f"{name} over encrypted text column {column.table}.{column.name} "
                    "is not supported"
                )
            onion, level = self._require(plan, column, ComputationClass.ORDER)
            ref = ast.ColumnRef(column.onion_state(Onion.ORD).anon_name, qualifier)
            index = add_item(ast.FunctionCall(name, [ref]), label)
            return OutputSpec("ope_agg", label, index, column=column, onion=Onion.ORD, level=level)

        raise UnsupportedQueryError(f"aggregate/function {name} is not supported over ciphertext")

    def _rewrite_having(
        self, expr: ast.Expression, scope: _Scope, plan: RewritePlan
    ) -> ast.Expression:
        if isinstance(expr, ast.BinaryOp) and expr.op in ("AND", "OR"):
            return ast.BinaryOp(
                expr.op,
                self._rewrite_having(expr.left, scope, plan),
                self._rewrite_having(expr.right, scope, plan),
            )
        if (
            isinstance(expr, ast.BinaryOp)
            and isinstance(expr.left, ast.FunctionCall)
            and expr.left.name.upper() == "COUNT"
            and isinstance(expr.right, ast.Literal)
        ):
            rewritten_count = self._project_count_for_having(expr.left, scope, plan)
            return ast.BinaryOp(expr.op, rewritten_count, expr.right)
        raise UnsupportedQueryError(
            "HAVING clauses over encrypted data support only COUNT comparisons"
        )

    def _project_count_for_having(
        self, expr: ast.FunctionCall, scope: _Scope, plan: RewritePlan
    ) -> ast.Expression:
        if not expr.args or isinstance(expr.args[0], ast.Star):
            return ast.FunctionCall("COUNT", [ast.Star()])
        column, qualifier = scope.resolve(expr.args[0])
        if column.plaintext:
            return ast.FunctionCall("COUNT", [ast.ColumnRef(column.name, qualifier)], expr.distinct)
        computation = ComputationClass.EQUALITY if expr.distinct else ComputationClass.NONE
        onion, _ = self._require(plan, column, computation)
        return ast.FunctionCall(
            "COUNT", [ast.ColumnRef(column.onion_state(onion).anon_name, qualifier)], expr.distinct
        )

    # ==================================================================
    # INSERT / UPDATE / DELETE
    # ==================================================================
    def _rewrite_insert(self, statement: ast.Insert, plan: RewritePlan) -> RewritePlan:
        table_meta = self.schema.table(statement.table)
        columns = statement.columns or table_meta.column_names()

        # Deterministic anonymised layout, independent of the row values.
        metas = [table_meta.column(name) for name in columns]
        anon_columns: list[str] = []
        for column in metas:
            anon_columns.extend([column.name] if column.plaintext else self._anon_parts(column))
        for group in table_meta.hom_groups:
            anon_columns.append(group.anon_name)
        position = {name: i for i, name in enumerate(columns)}

        rows: list[list[ast.Expression]] = []
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise ProxyError("INSERT row length does not match the column list")
            row: list[ast.Expression] = []
            # One value index per cell, shared by its onion parts and its
            # packed-HOM member, so every part encrypts the same value.
            indices: list[int] = []
            for column, expr in zip(metas, row_exprs):
                self._record(plan, column, ComputationClass.NONE)
                if not self._bindable(expr):
                    raise UnsupportedQueryError(
                        "INSERT values must be constants or ? placeholders"
                    )
                indices.append(self._value_index(plan, expr))
                row.extend(
                    target for _, target in self._row_value_slots(plan, indices[-1], column)
                )
            for group in table_meta.hom_groups:
                row.append(self._packed_insert_cell(plan, table_meta, group, position, indices))
            rows.append(row)
        plan.statement = ast.Insert(table_meta.anon_name, anon_columns, rows)
        return plan

    def _packed_insert_cell(
        self,
        plan: RewritePlan,
        table_meta: TableMeta,
        group: HomGroup,
        position: dict[str, int],
        indices: list[int],
    ) -> ast.Literal:
        """The ``hom_pack`` slot for one row's shared packed group cell.

        Members missing from the INSERT column list lift as NULL and are
        stored as count-0 slots; the cell itself is always non-NULL, so the
        read paths never need a packed-IS-NULL special case.
        """
        pack: list[tuple[ColumnMeta, int]] = []
        for member_name in group.members:
            at = position.get(member_name)
            if at is not None:
                index = indices[at]
            else:
                index = self._value_index(plan, ast.Literal(None))
            pack.append((table_meta.column(member_name), index))
        target = ast.Literal(None)
        plan.param_slots.append(ParamSlot(pack[0][1], "hom_pack", target, pack=pack))
        return target

    def _rewrite_update(self, statement: ast.Update, plan: RewritePlan) -> RewritePlan:
        table_meta = self.schema.table(statement.table)
        scope = _Scope(self.schema)
        scope.add(statement.table, None)

        # Rewrite the WHERE clause *before* the assignments: the predicate
        # executes against pre-update onion state, so an increment in this
        # very statement (which marks the column HOM-stale for *later*
        # statements) must not disqualify its own WHERE clause.
        where = (
            self._rewrite_predicate(statement.where, scope, plan)
            if statement.where is not None
            else None
        )

        assignments: list[tuple[str, ast.Expression]] = []
        # Two increments landing on the same shared packed column must nest
        # (a second plain assignment to the same name would win and drop the
        # first member's delta).
        packed_assignment_at: dict[str, int] = {}
        for column_name, expr in statement.assignments:
            column = table_meta.column(column_name)
            if column.plaintext:
                if not self._bindable(expr):
                    raise UnsupportedQueryError("updates to plaintext columns must be constants")
                assignments.append((column.name, self._plain_constant(plan, expr)))
                continue
            if self._bindable(expr):
                self._record(plan, column, ComputationClass.NONE)
                index = self._value_index(plan, expr)
                assignments.extend(self._row_value_slots(plan, index, column))
                if column.has_onion(Onion.ADD):
                    self._register_hom_rmw(plan, table_meta, column, index)
                continue
            increment = _match_increment(expr, column_name)
            if increment is not None:
                value_expr, sign = increment
                self._record(plan, column, ComputationClass.ADDITION)
                self._require(plan, column, ComputationClass.ADDITION)
                state = column.onion_state(Onion.ADD)
                delta = ast.Literal(None)
                index = self._value_index(plan, value_expr)
                plan.param_slots.append(ParamSlot(index, "hom_delta", delta, column, sign=sign))
                # The delta ciphertext is pre-shifted into the member's slot;
                # the Eq-onion cell rides along as a NULL sentinel so
                # increments of NULL values leave the slot at count 0.
                sentinel = ast.ColumnRef(column.onion_state(Onion.EQ).anon_name)
                previous = packed_assignment_at.get(state.anon_name)
                base: ast.Expression = (
                    assignments[previous][1]
                    if previous is not None
                    else ast.ColumnRef(state.anon_name)
                )
                call = ast.FunctionCall(udfs.HOM_ADD_PACKED, [base, delta, sentinel])
                if previous is not None:
                    assignments[previous] = (state.anon_name, call)
                else:
                    packed_assignment_at[state.anon_name] = len(assignments)
                    assignments.append((state.anon_name, call))
                if not column.hom_stale_others:
                    # Projections of this column must switch to the Add onion
                    # (§3.3); cached SELECT plans reading Eq are now stale.
                    column.hom_stale_others = True
                    self.schema.bump_version()
                continue
            self._record(plan, column, ComputationClass.PLAINTEXT)
            raise UnsupportedQueryError(
                f"UPDATE expression {expr.to_sql()} cannot run over encrypted data "
                "(it requires the SELECT-then-UPDATE strategy of §3.3)"
            )

        plan.statement = ast.Update(table_meta.anon_name, assignments, where)
        return plan

    @staticmethod
    def _register_hom_rmw(
        plan: RewritePlan, table_meta: TableMeta, column: ColumnMeta, index: int
    ) -> None:
        """Record that an UPDATE absolutely reassigns one packed slot."""
        group = table_meta.hom_groups[column.hom_group]
        for spec in plan.hom_rmw:
            if spec.group_anon_name == group.anon_name:
                spec.assignments.append((column, index))
                return
        plan.hom_rmw.append(
            HomRmwSpec(table_meta.anon_name, group.anon_name, [(column, index)])
        )

    def _rewrite_delete(self, statement: ast.Delete, plan: RewritePlan) -> RewritePlan:
        table_meta = self.schema.table(statement.table)
        scope = _Scope(self.schema)
        scope.add(statement.table, None)
        where = (
            self._rewrite_predicate(statement.where, scope, plan)
            if statement.where is not None
            else None
        )
        plan.statement = ast.Delete(table_meta.anon_name, where)
        return plan


def _match_increment(
    expr: ast.Expression, column_name: str
) -> Optional[tuple[Union[ast.Literal, ast.Placeholder], int]]:
    """Detect ``col + k`` / ``col - k`` patterns in an UPDATE assignment.

    Returns the delta expression (a literal or a ``?`` placeholder bound at
    execution time) and the sign to apply to it.
    """
    if not isinstance(expr, ast.BinaryOp) or expr.op not in ("+", "-"):
        return None
    left, right = expr.left, expr.right
    bindable = (ast.Literal, ast.Placeholder)
    if (
        isinstance(left, ast.ColumnRef)
        and left.name == column_name
        and isinstance(right, bindable)
    ):
        value_expr = right
    elif (
        expr.op == "+"
        and isinstance(right, ast.ColumnRef)
        and right.name == column_name
        and isinstance(left, bindable)
    ):
        value_expr = left
    else:
        return None
    if isinstance(value_expr, ast.Literal) and not isinstance(value_expr.value, (int, float)):
        return None
    return value_expr, (-1 if expr.op == "-" else 1)


def _find_output(specs: list[OutputSpec], column: ColumnMeta) -> Optional[int]:
    for position, spec in enumerate(specs):
        if spec.column is column:
            return position
    return None


def _qualifier_of(scope: _Scope, column: ColumnMeta) -> str:
    for qualifier, meta, alias in scope.entries:
        if meta.name == column.table:
            return alias or meta.anon_name
    raise ProxyError(f"column {column.table}.{column.name} is not in scope")
