//! DML planning and execution: INSERT (with ON CONFLICT), UPDATE, DELETE,
//! COPY.
//!
//! A statement is planned once — catalog entry, bound expressions, target
//! access path — into an [`InsertPlan`] / [`UpdatePlan`] / [`DeletePlan`]
//! that holds nothing value-specific when the statement's literals were
//! lifted into slots, so the engine's plan cache can run it again with other
//! values.
//!
//! Writers follow PostgreSQL's read-committed protocol: target rows are found
//! under the statement snapshot, locked, then re-checked against the latest
//! committed version before modification (the EvalPlanQual dance).

use crate::catalog::{Column, IndexId, IndexMethod, TableMeta};
use crate::cost::INDEX_DESCEND_MS;
use crate::error::{ErrorCode, PgError, PgResult};
use crate::exec::{
    build_select_plan, passes, run_select_plan, scan_table, EngineCatalogView,
    ExecCtx,
};
use crate::expr::{bind, eval, BExpr, ColumnRef, RowScope};
use crate::index::{IndexKey, IndexStore};
use crate::lock::{LockKey, LockMode};
use crate::plan::{choose_access_paths, IndexProbe, PlanNode, SelectPlan};
use crate::storage::{HeapStore, TableStore};
use crate::txn::{Snapshot, INVALID_XID};
use crate::types::{Datum, Row};
use crate::wal::WalRecord;
use sqlparse::ast::{Assignment, ConflictAction, Expr, Insert, InsertSource};
use std::sync::Arc;

/// Scope of a table's own columns (unqualified + optionally aliased).
fn table_scope(meta: &TableMeta, alias: Option<&str>) -> RowScope {
    let q = alias.unwrap_or(&meta.name);
    RowScope {
        cols: meta.columns.iter().map(|c| ColumnRef::new(Some(q), &c.name)).collect(),
    }
}

/// Check all unique indexes for a conflicting live row. `exclude` skips the
/// row being updated; a partial index constrains only the rows its
/// predicate admits.
fn check_unique(
    ctx: &ExecCtx,
    meta: &TableMeta,
    row: &Row,
    exclude: Option<u64>,
) -> PgResult<()> {
    let store = ctx.engine.store(meta.id)?;
    let TableStore::Heap(heap) = &*store else { return Ok(()) };
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        if !imeta.unique {
            continue;
        }
        let (IndexKey::BTree(key), true) = ctx.engine.index_key(meta, &imeta, row, false)?
        else {
            continue;
        };
        if key.iter().any(Datum::is_null) {
            continue; // SQL: NULLs never conflict
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        for rid in b.get_eq(&key) {
            if Some(rid) == exclude {
                continue;
            }
            for version in heap.live_or_pending_versions(&ctx.engine.txns, rid, ctx.xid) {
                // re-check key equality (index entries can be stale)
                let (IndexKey::BTree(vkey), true) =
                    ctx.engine.index_key(meta, &imeta, &version, false)?
                else {
                    continue;
                };
                if vkey
                    .iter()
                    .zip(&key)
                    .all(|(a, b)| a.sql_cmp(b) == Some(std::cmp::Ordering::Equal))
                {
                    return Err(PgError::new(
                        ErrorCode::UniqueViolation,
                        format!(
                            "duplicate key value violates unique constraint \"{}\"",
                            imeta.name
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Foreign keys: every referenced row must exist (insert/update path).
fn check_fk_outbound(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    for fk in &meta.foreign_keys {
        let values: Vec<Datum> = fk.columns.iter().map(|&c| row[c].clone()).collect();
        if values.iter().any(Datum::is_null) {
            continue;
        }
        let ref_meta = ctx.engine.table_meta_by_id(fk.ref_table)?;
        if !row_exists_with(ctx, &ref_meta, &fk.ref_columns, &values)? {
            return Err(PgError::new(
                ErrorCode::ForeignKeyViolation,
                format!(
                    "insert or update on table \"{}\" violates foreign key to \"{}\"",
                    meta.name, ref_meta.name
                ),
            ));
        }
    }
    Ok(())
}

/// Foreign keys: nothing may reference a row being deleted.
fn check_fk_inbound(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    let refs = ctx.engine.catalog.read().referencing_tables(meta.id);
    for (child_id, fk) in refs {
        let values: Vec<Datum> = fk.ref_columns.iter().map(|&c| row[c].clone()).collect();
        if values.iter().any(Datum::is_null) {
            continue;
        }
        let child_meta = ctx.engine.table_meta_by_id(child_id)?;
        if row_exists_with(ctx, &child_meta, &fk.columns, &values)? {
            return Err(PgError::new(
                ErrorCode::ForeignKeyViolation,
                format!(
                    "update or delete on table \"{}\" violates foreign key on \"{}\"",
                    meta.name, child_meta.name
                ),
            ));
        }
    }
    Ok(())
}

/// Does a visible row exist in `meta` with `cols = values`? Uses an index
/// with a matching column prefix when available.
fn row_exists_with(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    cols: &[usize],
    values: &[Datum],
) -> PgResult<bool> {
    let store = ctx.engine.store(meta.id)?;
    let TableStore::Heap(heap) = &*store else {
        return Err(PgError::unsupported("foreign keys on columnar tables"));
    };
    // find a b-tree index whose leading columns are exactly `cols`
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        if imeta.method != IndexMethod::BTree {
            continue;
        }
        let index_cols: Option<Vec<usize>> = imeta
            .exprs
            .iter()
            .map(|e| match e {
                Expr::Column { name, .. } => meta.column_index(name),
                _ => None,
            })
            .collect();
        let Some(index_cols) = index_cols else { continue };
        if index_cols.len() < cols.len() || index_cols[..cols.len()] != *cols {
            continue;
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        let rids = if index_cols.len() == cols.len() {
            b.get_eq(values)
        } else {
            b.get_prefix(values)
        };
        ctx.cost.add_cpu(INDEX_DESCEND_MS);
        for rid in rids {
            let matched = heap.with_visible_version(&ctx.engine.txns, &ctx.snap, rid, |v| {
                cols.iter()
                    .zip(values)
                    .all(|(&c, val)| v[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
            });
            if matched == Some(true) {
                return Ok(true);
            }
        }
        return Ok(false);
    }
    // no usable index: sequential existence scan
    let mut found = false;
    heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
        if !found
            && cols
                .iter()
                .zip(values)
                .all(|(&c, val)| t.data[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
        {
            found = true;
        }
    });
    ctx.cost.add_tuples(heap.live_estimate());
    Ok(found)
}

/// Target column positions of an INSERT / COPY column list (empty = all).
fn resolve_target_cols(meta: &TableMeta, columns: &[String]) -> PgResult<Vec<usize>> {
    if columns.is_empty() {
        return Ok((0..meta.columns.len()).collect());
    }
    columns
        .iter()
        .map(|n| meta.column_index(n).ok_or_else(|| PgError::undefined_column(n)))
        .collect()
}

/// The value `v` stores as in column `col`: cast to its type, refused when
/// NULL in a NOT NULL column. Every write checks NOT NULL here.
fn column_value(col: &Column, v: &Datum) -> PgResult<Datum> {
    if v.is_null() && col.not_null {
        return Err(PgError::new(
            ErrorCode::NotNullViolation,
            format!("null value in column \"{}\" violates not-null constraint", col.name),
        ));
    }
    v.cast_to(col.ty)
}

/// Where an INSERT or a COPY writes: the table, the columns its values fill
/// and the bound `DEFAULT` of every column they leave out.
#[derive(Debug)]
struct RowTarget {
    meta: Arc<TableMeta>,
    cols: Vec<usize>,
    defaults: Vec<Option<BExpr>>,
}

impl RowTarget {
    fn new(meta: Arc<TableMeta>, columns: &[String]) -> PgResult<RowTarget> {
        let cols = resolve_target_cols(&meta, columns)?;
        let no_columns = RowScope::default();
        let defaults = meta
            .columns
            .iter()
            .enumerate()
            .map(|(i, col)| match &col.default {
                Some(d) if !cols.contains(&i) => bind(d, &no_columns).map(Some),
                _ => Ok(None),
            })
            .collect::<PgResult<_>>()?;
        Ok(RowTarget { meta, cols, defaults })
    }

    /// One full row from values of the target columns: defaults filled in,
    /// every value cast and checked.
    fn complete(&self, ctx: &ExecCtx, values: Vec<Datum>) -> PgResult<Row> {
        if values.len() != self.cols.len() {
            return Err(PgError::new(
                ErrorCode::Syntax,
                format!(
                    "INSERT has {} expressions but {} target columns",
                    values.len(),
                    self.cols.len()
                ),
            ));
        }
        let mut row: Row = vec![Datum::Null; self.meta.columns.len()];
        for (&c, v) in self.cols.iter().zip(values) {
            row[c] = v;
        }
        for (i, col) in self.meta.columns.iter().enumerate() {
            if let Some(d) = &self.defaults[i] {
                row[i] = eval(d, &Vec::new(), &ctx.eval_ctx)?;
            }
            row[i] = column_value(col, &row[i])?;
        }
        Ok(row)
    }
}

/// Every writer first holds its transaction's shared lock on the table.
fn lock_table(ctx: &ExecCtx, meta: &TableMeta) -> PgResult<()> {
    if ctx.xid == INVALID_XID {
        return Err(PgError::internal("DML requires an active transaction"));
    }
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)
}

/// Where an INSERT's rows come from.
#[derive(Debug)]
enum InsertRows {
    /// `VALUES` rows, bound over no columns.
    Values(Vec<Vec<BExpr>>),
    Query(Box<SelectPlan>),
}

/// `ON CONFLICT (cols) DO …`.
#[derive(Debug)]
struct ConflictPlan {
    /// Conflict target column positions (the primary key when unnamed).
    cols: Vec<usize>,
    /// `DO UPDATE SET` assignments, bound over the table's columns followed
    /// by `excluded.*`; `None` is `DO NOTHING`.
    update: Option<Vec<(usize, BExpr)>>,
}

/// A planned INSERT.
#[derive(Debug)]
pub struct InsertPlan {
    target: RowTarget,
    rows: InsertRows,
    conflict: Option<ConflictPlan>,
}

/// How an UPDATE/DELETE finds its rows: a seq or index scan of the target
/// table under the WHERE clause.
#[derive(Debug)]
struct TargetScan {
    index: Option<(IndexId, IndexProbe)>,
    /// The whole WHERE clause: the scan's filter, and the predicate
    /// re-checked on each row's latest version.
    filter: Option<BExpr>,
}

/// A planned UPDATE.
#[derive(Debug)]
pub struct UpdatePlan {
    meta: Arc<TableMeta>,
    assignments: Vec<(usize, BExpr)>,
    targets: TargetScan,
}

/// A planned DELETE.
#[derive(Debug)]
pub struct DeletePlan {
    meta: Arc<TableMeta>,
    targets: TargetScan,
}

fn bind_assignments(
    meta: &TableMeta,
    assignments: &[Assignment],
    scope: &RowScope,
) -> PgResult<Vec<(usize, BExpr)>> {
    assignments
        .iter()
        .map(|a| {
            let c = meta
                .column_index(&a.column)
                .ok_or_else(|| PgError::undefined_column(&a.column))?;
            Ok((c, bind(&a.value, scope)?))
        })
        .collect()
}

/// Plan an INSERT. A `SELECT` source is planned here too (its subqueries run
/// eagerly, like any SELECT's).
pub fn plan_insert(ctx: &mut ExecCtx, ins: &Insert) -> PgResult<InsertPlan> {
    let meta = ctx.engine.table_meta(&ins.table)?;
    let rows = match &ins.source {
        InsertSource::Values(rows) => {
            let no_columns = RowScope::default();
            InsertRows::Values(
                rows.iter()
                    .map(|r| r.iter().map(|e| bind(e, &no_columns)).collect())
                    .collect::<PgResult<_>>()?,
            )
        }
        InsertSource::Query(sel) => InsertRows::Query(Box::new(build_select_plan(ctx, sel)?)),
    };
    let conflict = match &ins.on_conflict {
        None => None,
        Some(oc) => {
            let cols = if oc.target.is_empty() {
                meta.primary_key.clone().ok_or_else(|| {
                    PgError::new(ErrorCode::InvalidParameter, "ON CONFLICT requires a primary key")
                })?
            } else {
                resolve_target_cols(&meta, &oc.target)?
            };
            let update = match &oc.action {
                ConflictAction::Nothing => None,
                ConflictAction::Update(assignments) => {
                    // scope: table columns then excluded.*
                    let mut scope = table_scope(&meta, None);
                    scope.cols.extend(
                        meta.columns.iter().map(|c| ColumnRef::new(Some("excluded"), &c.name)),
                    );
                    Some(bind_assignments(&meta, assignments, &scope)?)
                }
            };
            Some(ConflictPlan { cols, update })
        }
    };
    Ok(InsertPlan { target: RowTarget::new(meta, &ins.columns)?, rows, conflict })
}

/// Execute INSERT. Returns the number of rows inserted (ON CONFLICT DO
/// NOTHING rows are not counted; DO UPDATE rows are).
pub fn run_insert(ctx: &mut ExecCtx, plan: &InsertPlan) -> PgResult<u64> {
    lock_table(ctx, &plan.target.meta)?;
    // materialise source rows first (so INSERT INTO t SELECT FROM t is sane)
    let rows: Vec<Row> = match &plan.rows {
        InsertRows::Values(rows) => rows
            .iter()
            .map(|r| r.iter().map(|b| eval(b, &Vec::new(), &ctx.eval_ctx)).collect())
            .collect::<PgResult<_>>()?,
        InsertRows::Query(select) => run_select_plan(ctx, select)?.1,
    };
    insert_rows(ctx, &plan.target, plan.conflict.as_ref(), rows)
}

/// COPY FROM: an INSERT of rows that are already materialised, as values of
/// `columns` (all columns when empty). Nothing is planned or cached.
pub fn exec_copy(
    ctx: &mut ExecCtx,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<u64> {
    let meta = ctx.engine.table_meta(table)?;
    lock_table(ctx, &meta)?;
    insert_rows(ctx, &RowTarget::new(meta, columns)?, None, rows)
}

/// Write materialised `rows` into `target`, row by row: a stripe for a
/// columnar table, else each row checked against its constraints, or
/// handed to its `conflict` clause, and inserted.
fn insert_rows(
    ctx: &mut ExecCtx,
    target: &RowTarget,
    conflict: Option<&ConflictPlan>,
    rows: Vec<Row>,
) -> PgResult<u64> {
    let meta = &*target.meta;
    let store = ctx.engine.store(meta.id)?;
    if let TableStore::Columnar(columnar) = &*store {
        if conflict.is_some() {
            return Err(PgError::unsupported("ON CONFLICT on columnar tables"));
        }
        let rows: Vec<Row> =
            rows.into_iter().map(|values| target.complete(ctx, values)).collect::<PgResult<_>>()?;
        let n = rows.len() as u64;
        let seq = columnar.new_seq();
        let rec = WalRecord::ColumnarAppend { xid: ctx.xid, table: meta.id, seq, rows };
        ctx.engine.write(meta, &store, rec, None, Some(&mut ctx.cost))?;
        return Ok(n);
    }
    let heap = store.heap()?;
    let mut count = 0u64;
    'rows: for values in rows {
        let row = target.complete(ctx, values)?;
        // ON CONFLICT: look for an existing live row on the target key. One
        // deleted, or moved off the key, while we waited for its lock is
        // looked for again under a fresh snapshot, as PostgreSQL's
        // read-committed retry does; a row found again that still cannot be
        // replaced is left to the unique check below.
        if let Some(oc) = conflict {
            let (mut fresh, mut tried) = (None, None);
            while let Some(existing) = find_conflict(ctx, meta, &oc.cols, &row, fresh.as_ref())? {
                let Some(assignments) = &oc.update else { continue 'rows };
                if tried == Some(existing) {
                    break;
                }
                let excluded = Some((&row, &oc.cols[..]));
                if replace_version(ctx, meta, &store, existing, assignments, &None, excluded)? {
                    count += 1;
                    continue 'rows;
                }
                tried = Some(existing);
                fresh = Some(ctx.engine.txns.snapshot(ctx.xid));
            }
        }
        check_unique(ctx, meta, &row, None)?;
        check_fk_outbound(ctx, meta, &row)?;
        let row_id = heap.new_row_id();
        let rec = WalRecord::Insert { xid: ctx.xid, table: meta.id, row_id, row };
        ctx.engine.write(meta, &store, rec, None, Some(&mut ctx.cost))?;
        count += 1;
    }
    Ok(count)
}

/// Find a live row conflicting with `row` on the ON CONFLICT target columns,
/// under `snap` (the statement's snapshot when `None`).
fn find_conflict(
    ctx: &ExecCtx,
    meta: &TableMeta,
    cols: &[usize],
    row: &Row,
    snap: Option<&Snapshot>,
) -> PgResult<Option<u64>> {
    let snap = snap.unwrap_or(&ctx.snap);
    let values: Vec<Datum> = cols.iter().map(|&c| row[c].clone()).collect();
    if values.iter().any(Datum::is_null) {
        return Ok(None);
    }
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let matches = |v: &Row| same_key(cols, v, row);
    // find rows via any index with that prefix, else scan
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        let index_cols: Option<Vec<usize>> = imeta
            .exprs
            .iter()
            .map(|e| match e {
                Expr::Column { name, .. } => meta.column_index(name),
                _ => None,
            })
            .collect();
        let Some(index_cols) = index_cols else { continue };
        if index_cols[..] != cols[..] {
            continue;
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        for rid in b.get_eq(&values) {
            if heap.with_visible_version(&ctx.engine.txns, snap, rid, matches) == Some(true) {
                return Ok(Some(rid));
            }
        }
        return Ok(None);
    }
    let mut found = None;
    heap.scan_visible(&ctx.engine.txns, snap, |t| {
        if found.is_none() && matches(&t.data) {
            found = Some(t.row_id);
        }
    });
    Ok(found)
}

/// Whether rows `a` and `b` hold equal values in columns `cols`.
fn same_key(cols: &[usize], a: &Row, b: &Row) -> bool {
    cols.iter().all(|&c| a[c].sql_cmp(&b[c]) == Some(std::cmp::Ordering::Equal))
}

/// Lock row `row_id` and read its latest version under a fresh snapshot,
/// where `recheck` must still hold (the EvalPlanQual step). `None` when the
/// row is gone or no longer matches.
fn lock_latest(
    ctx: &ExecCtx,
    meta: &TableMeta,
    heap: &HeapStore,
    row_id: u64,
    recheck: &Option<BExpr>,
) -> PgResult<Option<(Row, Snapshot)>> {
    ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
    let fresh = ctx.engine.txns.snapshot(ctx.xid);
    match heap.visible_version(&ctx.engine.txns, &fresh, row_id) {
        Some(current) if passes(recheck, &current, &ctx.eval_ctx)? => Ok(Some((current, fresh))),
        _ => Ok(None),
    }
}

/// Replace the latest version of row `row_id` by one with `assignments`
/// applied: the step UPDATE and ON CONFLICT DO UPDATE share. An upsert
/// passes its proposed row and ON CONFLICT columns as `excluded`: the
/// latest version must still hold that key, and the assignments see the
/// proposed row after the table's columns. The old and new images are moved
/// into the write, not copied; the heap and the WAL each need a row spine
/// of their own, and that one clone shares every payload. Returns whether it
/// replaced: false when the row is gone, fails `recheck` or the key, or
/// could not be expired.
fn replace_version(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    store: &TableStore,
    row_id: u64,
    assignments: &[(usize, BExpr)],
    recheck: &Option<BExpr>,
    excluded: Option<(&Row, &[usize])>,
) -> PgResult<bool> {
    let Some((current, fresh)) = lock_latest(ctx, meta, store.heap()?, row_id, recheck)? else {
        return Ok(false);
    };
    let with_excluded: Row;
    let scope = match excluded {
        Some((proposed, cols)) if !same_key(cols, &current, proposed) => return Ok(false),
        Some((proposed, _)) => {
            with_excluded = current.iter().chain(proposed).cloned().collect();
            &with_excluded
        }
        None => &current,
    };
    let mut new_row = current.clone();
    for (c, b) in assignments {
        new_row[*c] = column_value(&meta.columns[*c], &eval(b, scope, &ctx.eval_ctx)?)?;
    }
    check_unique(ctx, meta, &new_row, Some(row_id))?;
    check_fk_outbound(ctx, meta, &new_row)?;
    let rec = WalRecord::Update { xid: ctx.xid, table: meta.id, row_id, old_row: current, new_row };
    ctx.engine.write(meta, store, rec, Some(&fresh), Some(&mut ctx.cost))
}

/// Plan the target scan of an UPDATE/DELETE: the WHERE clause bound as the
/// scan's filter, over an index when one applies.
fn plan_targets(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    scope: &RowScope,
    where_clause: &Option<Expr>,
) -> PgResult<TargetScan> {
    let filter = where_clause.as_ref().map(|w| bind(w, scope)).transpose()?;
    let mut node = PlanNode::SeqScan { table: meta.id, filter, cols: None };
    choose_access_paths(&mut node, &EngineCatalogView { engine: ctx.engine })?;
    match node {
        PlanNode::SeqScan { filter, .. } => Ok(TargetScan { index: None, filter }),
        PlanNode::IndexScan { index, probe, filter, .. } => {
            Ok(TargetScan { index: Some((index, probe)), filter })
        }
        _ => Err(PgError::internal("unexpected DML target plan")),
    }
}

impl TargetScan {
    /// Ids of the candidate rows under the statement snapshot. The rows are
    /// re-read under a fresh snapshot once locked, so none is copied here.
    fn run(&self, ctx: &mut ExecCtx, meta: &TableMeta) -> PgResult<Vec<u64>> {
        let index = self.index.as_ref().map(|(id, probe)| (*id, probe));
        scan_table(ctx, meta.id, index, &self.filter)
    }
}

pub fn plan_update(ctx: &mut ExecCtx, upd: &sqlparse::ast::Update) -> PgResult<UpdatePlan> {
    let meta = ctx.engine.table_meta(&upd.table)?;
    let scope = table_scope(&meta, upd.alias.as_deref());
    let assignments = bind_assignments(&meta, &upd.assignments, &scope)?;
    let targets = plan_targets(ctx, &meta, &scope, &upd.where_clause)?;
    Ok(UpdatePlan { meta, assignments, targets })
}

/// Execute UPDATE. Returns rows updated.
pub fn run_update(ctx: &mut ExecCtx, plan: &UpdatePlan) -> PgResult<u64> {
    let meta = &*plan.meta;
    lock_table(ctx, meta)?;
    let targets = plan.targets.run(ctx, meta)?;
    let store = ctx.engine.store(meta.id)?;
    store.heap()?; // columnar tables are append-only
    let mut count = 0u64;
    for row_id in targets {
        let filter = &plan.targets.filter;
        if replace_version(ctx, meta, &store, row_id, &plan.assignments, filter, None)? {
            count += 1;
        }
    }
    Ok(count)
}

pub fn plan_delete(ctx: &mut ExecCtx, del: &sqlparse::ast::Delete) -> PgResult<DeletePlan> {
    let meta = ctx.engine.table_meta(&del.table)?;
    let scope = table_scope(&meta, del.alias.as_deref());
    let targets = plan_targets(ctx, &meta, &scope, &del.where_clause)?;
    Ok(DeletePlan { meta, targets })
}

/// Execute DELETE. Returns rows deleted.
pub fn run_delete(ctx: &mut ExecCtx, plan: &DeletePlan) -> PgResult<u64> {
    let meta = &*plan.meta;
    lock_table(ctx, meta)?;
    let targets = plan.targets.run(ctx, meta)?;
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let mut count = 0u64;
    for row_id in targets {
        let Some((current, fresh)) = lock_latest(ctx, meta, heap, row_id, &plan.targets.filter)?
        else {
            continue;
        };
        check_fk_inbound(ctx, meta, &current)?;
        let rec = WalRecord::Delete { xid: ctx.xid, table: meta.id, row_id, row: current };
        if ctx.engine.write(meta, &store, rec, Some(&fresh), Some(&mut ctx.cost))? {
            count += 1;
        }
    }
    Ok(count)
}
