"""One metadata image for the proxy: capture, diff, apply -- and restart.

The proxy's restorable metadata (onion levels, HOM staleness, OPE range-join
groups, JOIN-ADJ group bases, shard routing, schema version) has one form
outside live state: the catalog's :class:`CatalogState`.  :func:`capture`
reads the live image, :func:`meta_diff` gives the ``meta`` payload between
two images, and :func:`apply_meta` -- the only code that restores live
metadata -- writes one back for crash recovery, in-doubt resolution, a
failed prepare's rewind and ROLLBACK.  The ``log_*`` helpers are the
proxy's write-through points; :func:`attach` and :func:`recover` rebuild a
restarted proxy and reconcile the backend with the log.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.core import udfs
from repro.core.onion import EncryptionScheme, Onion
from repro.durability.catalog import CatalogState, MetadataCatalog, tag_value, untag_value
from repro.errors import CatalogError
from repro.sql import ast_nodes as ast


# ---------------------------------------------------------------------------
# the image: capture, diff, apply
# ---------------------------------------------------------------------------
def capture(proxy) -> CatalogState:
    """The proxy's live metadata as one :class:`CatalogState` image.

    The image is complete rather than sparse: every column's HOM flag and
    every registered column's JOIN-ADJ base (its own id when ungrouped), in
    schema order, so :func:`meta_diff` can list changes in both directions.
    """
    schema = proxy.schema
    image = CatalogState(
        tables=[schema.describe_table(name) for name in schema.table_names()],
        table_counter=schema._table_counter,
        version=schema.version,
        join_bases=dict(proxy.joins.snapshot()[1]),
    )
    for table_name, table_meta in schema.tables.items():
        for column_name, column in table_meta.columns.items():
            for onion, state in column.onions.items():
                image.levels[(table_name, column_name, onion.value)] = state.level.value
            image.hom_stale[(table_name, column_name)] = column.hom_stale_others
            if column.ope_join_group is not None:
                image.ope_groups[(table_name, column_name)] = column.ope_join_group
    if getattr(proxy.db, "is_sharded", False):
        image.routing = dict(proxy.db.routing_catalog())
    if proxy.catalog is not None:
        image.resolved = set(proxy.catalog.state.resolved)
    return image


def meta_diff(before: CatalogState, after: CatalogState) -> Optional[dict]:
    """The state-setting ``meta`` payload that moves ``before`` to ``after``.

    Only entries of ``after`` that differ are listed, in ``after``'s order,
    so steady-state DML logs nothing and one change always encodes to one
    record.  Returns None when nothing differs.
    """
    meta = {}
    for name, default in (("levels", None), ("hom_stale", False), ("ope_groups", None)):
        old = getattr(before, name)
        rows = [[*key, value] for key, value in getattr(after, name).items()
                if old.get(key, default) != value]
        if rows:
            meta[name] = rows
    bases = [
        [*key, *base]
        for key, base in after.join_bases.items()
        if before.join_bases.get(key, key) != base
    ]
    if bases:
        meta["joins"] = {"bases": bases}
    routing = [
        [anon_table, *route]
        for anon_table, route in after.routing.items()
        if before.routing.get(anon_table) != route
    ]
    if routing:
        meta["routing"] = routing
    if after.version != before.version:
        meta["version"] = after.version
    return meta or None


def _column(schema, table: str, column: str) -> Optional[Any]:
    table_meta = schema.tables.get(table)
    return None if table_meta is None else table_meta.columns.get(column)


def apply_meta(proxy, payload: dict) -> None:
    """Write a ``meta`` payload (or a ``snapshot`` body) into live state.

    JOIN-ADJ keys restore through the logged group structure alone (see
    ``CatalogState.join_bases``): a member's effective scalar is its base's
    initial scalar, which re-derives from the master key.
    """
    schema = proxy.schema
    for table, column_name, onion, level in payload.get("levels", ()):
        column = _column(schema, table, column_name)
        state = column.onions.get(Onion(onion)) if column is not None else None
        if state is not None:
            state.level = EncryptionScheme(level)
    for table, column_name, stale in payload.get("hom_stale", ()):
        column = _column(schema, table, column_name)
        if column is not None:
            column.hom_stale_others = bool(stale)
    for table, column_name, group in payload.get("ope_groups", ()):
        column = _column(schema, table, column_name)
        if column is not None:
            column.ope_join_group = group
    for table, column_name, base_table, base_column in (
        payload.get("joins") or {}
    ).get("bases", ()):
        proxy.joins.restore_group((table, column_name), (base_table, base_column))
    if getattr(proxy.db, "is_sharded", False):
        for anon_table, anon_column, mode in payload.get("routing", ()):
            proxy.db.declare_routing(anon_table, anon_column, mode=mode)
    # Last: every cached-plan consumer keys on this counter.
    if "version" in payload:
        schema.version = int(payload["version"])


def rewind(proxy, image: CatalogState, keep_version: bool) -> CatalogState:
    """Put live metadata back to ``image``; returns the image it replaced.

    ``keep_version=True`` is a failed prepare: no backend data changed and
    nothing was cached against the discarded state, so the plan-cache
    version returns to the image's and cached plans survive.  ROLLBACK
    passes False: the data rewound too, so plans cached inside the
    transaction are stale (a JOIN plan cached there would skip the re-key
    its rolled-back adjustment made), so any change bumps the version.
    Moved JOIN-ADJ keys drop memoised Eq encryptions; no plan embeds one.
    """
    current = capture(proxy)
    diff = meta_diff(current, image) or {}
    if not keep_version:
        diff.pop("version", None)
    apply_meta(proxy, diff)
    if not keep_version and diff:
        proxy.schema.bump_version()
    if "joins" in diff:
        proxy.cache.invalidate_eq()
    return current


# ---------------------------------------------------------------------------
# write-through
# ---------------------------------------------------------------------------
def snapshot_record(proxy) -> dict:
    """Full current metadata as one ``snapshot`` record (compaction)."""
    image = capture(proxy)
    image.hom_stale = {key: True for key, stale in image.hom_stale.items() if stale}
    image.join_bases = {
        key: base for key, base in image.join_bases.items() if base != key
    }
    return image.snapshot_payload()


def log_create_table(proxy, table: str) -> None:
    record = proxy.schema.describe_table(table)
    record.update(t="create_table", version=proxy.schema.version)
    proxy.catalog.append(record, sync=True)


def log_drop_table(proxy, table: str, anon: str) -> None:
    record = {"t": "drop_table", "table": table, "anon": anon}
    proxy.catalog.append(dict(record, version=proxy.schema.version), sync=True)


def log_meta(proxy, meta: Optional[dict]) -> None:
    """Append one synced ``meta`` record, if there is a catalog and a change."""
    if proxy.catalog is not None and meta:
        proxy.catalog.append(dict(meta, t="meta"), sync=True)


def log_changes(proxy, before: CatalogState) -> None:
    """Log what changed since ``before`` as one ``meta`` record."""
    if proxy.catalog is not None:
        log_meta(proxy, meta_diff(before, capture(proxy)))


def log_intent(proxy, ops: list, meta: Optional[dict]) -> int:
    """Log a durable adjustment INTENT (ops, metadata, canary); its id."""
    return proxy.catalog.begin_adjustment(
        [list(op) for op in ops], meta or {}, sample_canary(proxy, ops)
    )


# ---------------------------------------------------------------------------
# restart
# ---------------------------------------------------------------------------
def attach(proxy, catalog) -> None:
    """Give ``proxy`` its catalog, recovering from it when it has history."""
    if not isinstance(catalog, MetadataCatalog):
        catalog = MetadataCatalog(os.fspath(catalog))
    proxy.catalog = catalog
    if catalog.has_history:
        recover(proxy, catalog)
    # Installed after recovery so no compaction can fire mid-rebuild.
    catalog.snapshot_source = lambda: snapshot_record(proxy)


def recover(proxy, catalog: MetadataCatalog) -> None:
    """Rebuild proxy metadata from snapshot+WAL, reconcile the backend.

    Column keys are never logged; they re-derive from the master key as
    each table restores, after which the replayed image overlays the
    freshly-built defaults through :func:`apply_meta`.  The backend is then
    reconciled with the log: DDL that was recorded but never executed is
    completed, anonymised tables orphaned by an interrupted DROP are
    removed, and every in-doubt adjustment intent is resolved by probing
    its canary ciphertext -- completing exactly the work whose commit
    record the crash swallowed, never re-stripping already-stripped rows.
    """
    state = catalog.state
    db = proxy.db
    sharded = getattr(db, "is_sharded", False)
    backend_tables = set(db.table_names())
    for payload in state.tables:
        meta = proxy.schema.restore_table(payload)
        for column in meta.columns.values():
            if not column.plaintext:
                proxy.joins.register_column(column.table, column.name)
        anon_ddl = proxy._anonymized_ddl(meta.name)
        if sharded:
            # Re-register the anonymised layout for scratch-replay plans.
            db.adopt_ddl(anon_ddl)
        if meta.anon_name not in backend_tables:
            # create_table record synced, crash hit before the DDL ran.
            db.execute(anon_ddl)
    live_anon = {payload["anon"] for payload in state.tables}
    for orphan in sorted(backend_tables - live_anon):
        # drop_table record synced, crash hit before the backend drop.
        db.execute(ast.DropTable(orphan, if_exists=True))
    apply_meta(proxy, state.snapshot_payload())
    for intent_id in sorted(state.in_doubt):
        resolve_in_doubt(proxy, state.in_doubt[intent_id])
        catalog.commit_adjustment(intent_id)


def resolve_in_doubt(proxy, intent: dict) -> None:
    """Verify-and-complete one logged adjustment intent (idempotently).

    The canary distinguishes "the UPDATEs never committed" (its pre-value
    is still stored) from "they committed but the crash beat the commit
    record" (its post-value is stored).  No canary means the adjusted
    columns held only NULLs, so re-running is safe either way.
    """
    db = proxy.db
    rerun = True
    canary = intent.get("canary")
    if canary:
        anon_table, anon_column = canary["anon_table"], canary["anon_column"]
        if _canary_present(db, anon_table, anon_column, untag_value(canary["pre"])):
            rerun = True
        elif _canary_present(db, anon_table, anon_column, untag_value(canary["post"])):
            rerun = False
        else:
            raise CatalogError(
                "in-doubt adjustment canary matches neither its pre- nor "
                "post-adjustment value: the backend does not correspond "
                "to this catalog"
            )
    if rerun:
        updates = [proxy.rewriter.adjustment_update(op) for op in intent["ops"]]
        try:
            db.execute(ast.Begin())
            for update in updates:
                db.execute(update)
            db.execute(ast.Commit())
        except Exception:
            db.execute(ast.Rollback())
            raise
    apply_meta(proxy, intent.get("meta") or {})


# ---------------------------------------------------------------------------
# canaries
# ---------------------------------------------------------------------------
def sample_canary(proxy, ops: list) -> Optional[dict]:
    """One stored ciphertext plus its expected post-adjustment value.

    Recovery probes the pair to decide whether an in-doubt adjustment's
    UPDATEs reached the backend: the pre-value still stored means they did
    not, the post-value means they committed.  The expected value is
    computed with the same UDF implementations the server runs, under keys
    re-derived from the master key.  Returns None when every adjusted
    column stores only NULLs -- re-running the strips is then a no-op
    either way, because the UDFs pass NULL through.
    """
    targets: list[tuple] = []
    for op in ops:
        target = (op[1], op[2], Onion(op[3]) if op[0] == "strip" else Onion.EQ)
        if target not in targets:
            targets.append(target)
    for table, column_name, onion in targets:
        column = proxy.schema.column(table, column_name)
        state = column.onion_state(onion)
        anon_table = proxy.schema.table(table).anon_name
        sample = ast.Select(
            items=[
                ast.SelectItem(ast.ColumnRef(state.anon_name), None),
                ast.SelectItem(ast.ColumnRef(column.iv_column), None),
            ],
            from_clause=ast.TableRef(anon_table, None),
            limit=16,
        )
        for row in proxy.db.execute(sample).rows:
            if row[0] is None:
                continue
            post = _canary_post_value(proxy, row[0], row[1], column, onion, ops)
            return {
                "anon_table": anon_table,
                "anon_column": state.anon_name,
                "pre": tag_value(row[0]),
                "post": tag_value(post),
            }
    return None


def _canary_post_value(
    proxy, value: Any, iv: Any, column: Any, onion: Onion, ops: list
) -> Any:
    """Apply the ops targeting one column, exactly as the server would."""
    for op in ops:
        if (op[1], op[2]) != (column.table, column.name):
            continue
        if op[0] == "strip" and Onion(op[3]) is onion:
            layer = EncryptionScheme(op[4])
            key = proxy.encryptor.layer_key(column, onion, layer)
            if layer is EncryptionScheme.RND:
                if onion is Onion.EQ:
                    value = udfs._decrypt_rnd_eq(key, value, iv)
                else:
                    value = udfs._decrypt_rnd_ord(key, value, iv)
            elif layer is EncryptionScheme.DET:
                value = udfs._decrypt_det_eq(key, value)
        elif op[0] == "join" and onion is Onion.EQ:
            value = udfs._join_adjust(value, int(op[3]).to_bytes(32, "big"))
    return value


def _canary_present(db, anon_table: str, anon_column: str, value: Any) -> bool:
    probe = ast.Select(
        items=[ast.SelectItem(ast.ColumnRef(anon_column), None)],
        from_clause=ast.TableRef(anon_table, None),
        where=ast.BinaryOp("=", ast.ColumnRef(anon_column), ast.Literal(value)),
    )
    return bool(db.execute(probe).rows)
