"""Proxy-side schema metadata: the anonymised layout of Figure 3.

For every application table the proxy records the anonymised table name, and
for every column the set of onions it carries, the anonymised column name of
each onion, the current (outermost remaining) encryption layer of each onion,
and optional developer constraints such as the minimum layer that may ever be
exposed (§3.5.1) or a "leave in plaintext" annotation (§3.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.onion import (
    ONION_LAYERS,
    ONIONS_FOR_BINARY,
    ONIONS_FOR_INTEGER,
    ONIONS_FOR_TEXT,
    EncryptionScheme,
    Onion,
    SecurityLevel,
    layer_index,
)
from repro.errors import ProxyError, SchemaError
from repro.sql.types import ColumnDef, DataType


@dataclass
class OnionState:
    """The state of one onion of one column."""

    onion: Onion
    anon_name: str
    level: EncryptionScheme

    def layers_below(self) -> list[EncryptionScheme]:
        """Layers still wrapped inside the current level (inclusive)."""
        layers = ONION_LAYERS[self.onion]
        return layers[layers.index(self.level):]


@dataclass
class ColumnMeta:
    """Proxy metadata for one application column."""

    table: str
    name: str
    data_type: DataType
    index: int
    onions: dict[Onion, OnionState] = field(default_factory=dict)
    iv_column: Optional[str] = None
    plaintext: bool = False            # developer annotation: not sensitive
    minimum_level: Optional[SecurityLevel] = None  # §3.5.1 constraint
    sensitive: bool = False            # marked sensitive by the developer
    join_base: Optional[tuple[str, str]] = None    # current JOIN-ADJ base column
    ope_join_group: Optional[str] = None           # declared range-join group
    hom_stale_others: bool = False     # Add onion updated ahead of the others
    #: Packed HOM (§8.4): slot index of this column inside its table's shared
    #: packed Add ciphertext, and which :class:`HomGroup` it belongs to
    #: (``None`` for a column without an Add onion).
    hom_slot: Optional[int] = None
    hom_group: Optional[int] = None

    @property
    def kind(self) -> str:
        if self.data_type.is_integer or self.data_type.name in ("DECIMAL", "NUMERIC",
                                                                "FLOAT", "DOUBLE", "REAL",
                                                                "BOOLEAN", "BOOL"):
            return "integer"
        if self.data_type.is_text or self.data_type.name in ("DATETIME", "DATE", "TIMESTAMP"):
            return "text"
        return "binary"

    def applicable_onions(self) -> tuple[Onion, ...]:
        kind = self.kind
        if kind == "integer":
            return ONIONS_FOR_INTEGER
        if kind == "text":
            return ONIONS_FOR_TEXT
        return ONIONS_FOR_BINARY

    def onion_state(self, onion: Onion) -> OnionState:
        if onion not in self.onions:
            raise ProxyError(
                f"column {self.table}.{self.name} has no {onion.value} onion"
            )
        return self.onions[onion]

    def has_onion(self, onion: Onion) -> bool:
        return onion in self.onions

    def min_enc(self) -> SecurityLevel:
        """The MinEnc metric of §8.3: the weakest scheme exposed on any onion."""
        if self.plaintext:
            return SecurityLevel.PLAIN
        levels = [SecurityLevel.of(state.level) for state in self.onions.values()]
        if not levels:
            return SecurityLevel.PLAIN
        return min(levels)

    def allows_level(self, onion: Onion, target: EncryptionScheme) -> bool:
        """Check the developer's minimum-layer constraint before peeling."""
        if self.minimum_level is None:
            return True
        return SecurityLevel.of(target) >= self.minimum_level


@dataclass
class HomGroup:
    """One shared packed-Add ciphertext column and its member columns.

    Every Add-onion column of a table is assigned a slot inside one of
    these groups; the anonymised layout stores a single BLOB column per
    group instead of one 2048-bit ciphertext per member.
    """

    index: int
    anon_name: str
    members: list[str] = field(default_factory=list)  # column names, slot order


@dataclass
class TableMeta:
    """Proxy metadata for one application table."""

    name: str
    anon_name: str
    columns: dict[str, ColumnMeta] = field(default_factory=dict)
    #: Packed HOM groups (empty when no column has an Add onion).
    hom_groups: list[HomGroup] = field(default_factory=list)

    def column(self, name: str) -> ColumnMeta:
        if name not in self.columns:
            raise SchemaError(f"table {self.name} has no column {name}")
        return self.columns[name]

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def column_names(self) -> list[str]:
        return list(self.columns)


class ProxySchema:
    """All table metadata known to the proxy, plus anonymisation counters."""

    def __init__(self, hom_slots: int, anonymize_names: bool = True):
        self.anonymize_names = anonymize_names
        #: Slots per packed Add ciphertext (``PackingConfig.slots_for(n)``).
        self.hom_slots = hom_slots
        self.tables: dict[str, TableMeta] = {}
        self._table_counter = 0
        #: Monotonic counter bumped on every schema or onion-state change;
        #: the proxy's rewrite-plan cache keys its validity on it.
        self.version = 0

    def bump_version(self) -> None:
        """Invalidate cached rewrite plans after a schema/onion change."""
        self.version += 1

    # -- construction -------------------------------------------------------
    def add_table(
        self,
        name: str,
        columns: list[ColumnDef],
        plaintext_columns: Optional[set[str]] = None,
        sensitive_columns: Optional[set[str]] = None,
        minimum_levels: Optional[dict[str, SecurityLevel]] = None,
    ) -> TableMeta:
        """Register an application table and compute its anonymised layout."""
        if name in self.tables:
            raise SchemaError(f"table {name} already registered with the proxy")
        self._table_counter += 1
        anon_name = f"table{self._table_counter}" if self.anonymize_names else name
        meta = TableMeta(name=name, anon_name=anon_name)
        plaintext_columns = plaintext_columns or set()
        sensitive_columns = sensitive_columns or set()
        minimum_levels = minimum_levels or {}
        for position, column in enumerate(columns, start=1):
            col_meta = ColumnMeta(
                table=name,
                name=column.name,
                data_type=column.data_type,
                index=position,
                plaintext=column.name in plaintext_columns,
                sensitive=column.name in sensitive_columns,
                minimum_level=minimum_levels.get(column.name),
            )
            if not col_meta.plaintext:
                prefix = f"C{position}" if self.anonymize_names else column.name
                for onion in col_meta.applicable_onions():
                    layers = ONION_LAYERS[onion]
                    col_meta.onions[onion] = OnionState(
                        onion=onion,
                        anon_name=f"{prefix}_{onion.value}",
                        level=layers[0],
                    )
                col_meta.iv_column = f"{prefix}_IV"
            meta.columns[column.name] = col_meta
        self._assign_hom_groups(meta)
        self.tables[name] = meta
        self.bump_version()
        return meta

    def _assign_hom_groups(self, meta: TableMeta) -> None:
        """Pack the table's Add-onion columns into shared ciphertext slots.

        Members are assigned in schema order, ``hom_slots`` per group; each
        member's Add onion is re-pointed at the group's single anonymised
        BLOB column and remembers its slot index.
        """
        members = [
            column
            for column in meta.columns.values()
            if column.has_onion(Onion.ADD)
        ]
        for start in range(0, len(members), self.hom_slots):
            group_index = len(meta.hom_groups)
            if self.anonymize_names:
                anon_name = f"H{group_index}_{Onion.ADD.value}"
            else:
                anon_name = f"hom{group_index}_{Onion.ADD.value}"
            group = HomGroup(index=group_index, anon_name=anon_name)
            for slot, column in enumerate(members[start : start + self.hom_slots]):
                column.hom_slot = slot
                column.hom_group = group_index
                column.onions[Onion.ADD].anon_name = anon_name
                group.members.append(column.name)
            meta.hom_groups.append(group)

    def drop_table(self, name: str) -> TableMeta:
        """Forget an application table (its anonymised twin is dropped too)."""
        if name not in self.tables:
            raise SchemaError(f"table {name} is not managed by the proxy")
        meta = self.tables.pop(name)
        self.bump_version()
        return meta

    # -- durable catalog support ----------------------------------------------
    def describe_table(self, name: str) -> dict:
        """The JSON-safe ``create_table`` catalog payload for one table.

        Everything :meth:`add_table` needs to rebuild the identical layout:
        column definitions, developer annotations, and the anonymised name
        (recorded explicitly because the counter-derived name drifts once
        tables have been dropped).  No key material appears here.
        """
        meta = self.table(name)
        columns = []
        annotations: dict[str, Any] = {"plaintext": [], "sensitive": [], "min_levels": {}}
        for column in meta.columns.values():
            columns.append(
                [
                    column.name,
                    column.data_type.name,
                    column.data_type.length,
                ]
            )
            if column.plaintext:
                annotations["plaintext"].append(column.name)
            if column.sensitive:
                annotations["sensitive"].append(column.name)
            if column.minimum_level is not None:
                annotations["min_levels"][column.name] = column.minimum_level.value
        return {
            "table": name,
            "anon": meta.anon_name,
            "counter": self._table_counter,
            "columns": columns,
            **annotations,
        }

    def restore_table(self, payload: dict) -> TableMeta:
        """Rebuild one table from its ``create_table`` catalog payload.

        The anonymised layout re-derives deterministically (column prefixes
        are positional, HOM groups assign in schema order), then the
        recorded anonymised table name overrides the counter-derived one.
        """
        columns = [
            ColumnDef(name, DataType(type_name, length))
            for name, type_name, length in payload["columns"]
        ]
        meta = self.add_table(
            payload["table"],
            columns,
            plaintext_columns=set(payload.get("plaintext", ())),
            sensitive_columns=set(payload.get("sensitive", ())),
            minimum_levels={
                name: SecurityLevel(value)
                for name, value in (payload.get("min_levels") or {}).items()
            },
        )
        meta.anon_name = payload["anon"]
        self._table_counter = max(self._table_counter, int(payload["counter"]))
        return meta

    def catalog_levels(self) -> list[list]:
        """Every onion level (and HOM staleness never included here) as rows."""
        rows = []
        for table_name, table in self.tables.items():
            for column_name, column in table.columns.items():
                for onion, state in column.onions.items():
                    rows.append([table_name, column_name, onion.value, state.level.value])
        return rows

    # -- lookups --------------------------------------------------------------
    def table(self, name: str) -> TableMeta:
        if name not in self.tables:
            raise SchemaError(f"table {name} is not managed by the proxy")
        return self.tables[name]

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def column(self, table: str, column: str) -> ColumnMeta:
        return self.table(table).column(column)

    def table_names(self) -> list[str]:
        return list(self.tables)

    # -- onion state updates ----------------------------------------------------
    def lower_onion(self, table: str, column: str, onion: Onion, target: EncryptionScheme) -> list[EncryptionScheme]:
        """Record that an onion has been peeled down to ``target``.

        Returns the sequence of layers that were removed (outermost first),
        which the adjuster uses to drive the corresponding server-side UDF
        UPDATE statements.
        """
        state = self.column(table, column).onion_state(onion)
        layers = ONION_LAYERS[onion]
        current_idx = layer_index(onion, state.level)
        target_idx = layer_index(onion, target)
        if target_idx <= current_idx:
            return []
        removed = layers[current_idx:target_idx]
        state.level = target
        self.bump_version()
        return removed
