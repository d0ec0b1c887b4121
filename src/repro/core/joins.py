"""Adjustable-join management: transitivity groups and key adjustments (§3.4).

Every column starts with its own JOIN-ADJ key, so no two columns are
joinable.  When the application issues an equi-join between two columns, the
proxy picks the join-base (the lexicographically first column of the
transitivity group), computes the key delta for the other column, and asks
the DBMS server -- via a UDF UPDATE -- to re-scale that column's JOIN-ADJ
values.  The manager tracks group membership so repeated joins require no
further adjustment, and counts adjustments for the ablation benchmark
(the paper bounds them by n(n-1)/2 for n columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import join_adj
from repro.crypto.prf import derive_key


ColumnId = tuple[str, str]


@dataclass
class JoinAdjustment:
    """One server-side JOIN-ADJ re-keying operation."""

    table: str
    column: str
    delta: int


@dataclass
class JoinManager:
    """Tracks per-column JOIN keys and transitivity groups."""

    master: bytes
    _scalars: dict[ColumnId, int] = field(default_factory=dict)
    _initial_scalars: dict[ColumnId, int] = field(default_factory=dict)
    _group_base: dict[ColumnId, ColumnId] = field(default_factory=dict)
    adjustments_performed: int = 0

    # -- key material -------------------------------------------------------
    def register_column(self, table: str, column: str) -> None:
        """Assign the column its initial (unique) JOIN-ADJ scalar key."""
        column_id = (table, column)
        if column_id in self._scalars:
            return
        scalar = join_adj.derive_scalar(self.master, table, column)
        self._scalars[column_id] = scalar
        self._initial_scalars[column_id] = scalar
        self._group_base[column_id] = column_id

    def effective_scalar(self, table: str, column: str) -> int:
        """The JOIN-ADJ scalar currently in effect for the column's stored data."""
        return self._scalars[(table, column)]

    def join_adj_for(self, table: str, column: str) -> join_adj.JoinAdj:
        """A JoinAdj object reflecting the column's *current* effective key."""
        prf_key = derive_key(self.master, "join-adj-prf", length=32)
        return join_adj.JoinAdj(self.effective_scalar(table, column), prf_key)

    def det_key(self, table: str, column: str) -> bytes:
        """Key of the DET component inside the JOIN layer."""
        return derive_key(self.master, "join-det", table, column, length=16)

    # -- transitivity groups ---------------------------------------------------
    def base_of(self, table: str, column: str) -> ColumnId:
        """Resolve the join-base of the column's transitivity group."""
        column_id = (table, column)
        base = self._group_base[column_id]
        while self._group_base[base] != base:
            base = self._group_base[base]
        self._group_base[column_id] = base
        return base

    def joinable(self, left: ColumnId, right: ColumnId) -> bool:
        """True when the two columns already share a JOIN-ADJ key."""
        return self.base_of(*left) == self.base_of(*right)

    def ensure_joinable(self, left: ColumnId, right: ColumnId) -> list[JoinAdjustment]:
        """Make two columns joinable, returning the server adjustments needed.

        The join-base is the lexicographically first column of the merged
        group (§3.4), and every column of the group whose effective key does
        not already match the base is re-keyed.
        """
        for column_id in (left, right):
            if column_id not in self._scalars:
                self.register_column(*column_id)
        base_left = self.base_of(*left)
        base_right = self.base_of(*right)
        if base_left == base_right:
            return []
        members = [
            column_id for column_id in self._scalars
            if self.base_of(*column_id) in (base_left, base_right)
        ]
        new_base = min(base_left, base_right)
        base_scalar = self._scalars[new_base]
        adjustments = []
        for column_id in members:
            self._group_base[column_id] = new_base
            current = self._scalars[column_id]
            if current != base_scalar:
                delta = base_scalar * join_adj.modinv(current, join_adj.ecc.ORDER) % join_adj.ecc.ORDER
                adjustments.append(JoinAdjustment(column_id[0], column_id[1], delta))
                self._scalars[column_id] = base_scalar
        self.adjustments_performed += len(adjustments)
        return adjustments

    def snapshot(self) -> tuple[dict, dict]:
        """The effective scalars and the raw group structure, as copies."""
        return dict(self._scalars), dict(self._group_base)

    # -- restore -----------------------------------------------------------------
    def restore_group(self, column_id: ColumnId, base: ColumnId) -> None:
        """Re-attach a column to a transitivity-group base (restart, rewinds).

        The durable catalog stores only the public (column -> base)
        structure, never scalars.  A member's effective scalar is always its
        base's *initial* scalar -- ``ensure_joinable`` only merges groups
        onto a base whose own key was never re-scaled -- so the structure
        alone rebuilds every effective key from the master key.
        """
        self.register_column(*column_id)
        self.register_column(*base)
        self._group_base[column_id] = base
        self._scalars[column_id] = self._initial_scalars[base]

    def group_members(self, table: str, column: str) -> list[ColumnId]:
        """All columns currently sharing a JOIN-ADJ key with the given column."""
        base = self.base_of(table, column)
        return sorted(c for c in self._scalars if self.base_of(*c) == base)
