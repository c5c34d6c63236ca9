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

use crate::catalog::{IndexId, IndexMethod, TableMeta};
use crate::error::{ErrorCode, PgError, PgResult};
use crate::exec::{
    build_select_plan, passes, run_select_plan, scan_table, EngineCatalogView,
    ExecCtx,
};
use crate::expr::{bind, eval, BExpr, ColumnRef, RowScope};
use crate::index::IndexStore;
use crate::lock::{LockKey, LockMode};
use crate::plan::{choose_access_paths, IndexProbe, PlanNode, SelectPlan};
use crate::storage::{ExpireOutcome, HeapStore, TableStore};
use crate::types::{Datum, Row};
use crate::txn::INVALID_XID;
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

/// Charge the simulated cost of writing one row (heap write + WAL + per-index
/// maintenance; trigram GIN entries dominate ingest cost, which is exactly
/// the effect Figure 7(a) measures).
fn charge_write(ctx: &mut ExecCtx, meta: &TableMeta, row: &Row) -> PgResult<()> {
    let model = ctx.engine.config.cost;
    ctx.cost.add_tuples(&model, 1);
    ctx.cost.add_cpu(model.cpu_tuple_ms); // WAL record
    for iid in &meta.indexes {
        let imeta = ctx.engine.index_meta(*iid)?;
        match imeta.method {
            IndexMethod::BTree => ctx.cost.add_cpu(model.index_descend_ms * 0.5),
            IndexMethod::Gin => {
                // one posting insertion per trigram of the indexed text
                let bound = ctx.engine.bound_index(&imeta, meta)?;
                let v = eval(&bound.0[0], row, &ctx.eval_ctx)?;
                if !v.is_null() {
                    let grams = crate::types::text_ops::trigrams(&v.to_text()).len();
                    ctx.cost.add_cpu(model.cpu_operator_ms * 4.0 * grams as f64);
                }
            }
        }
    }
    Ok(())
}

/// Check all unique indexes for a conflicting live row. `exclude` skips the
/// row being updated.
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
        let bound = ctx.engine.bound_index(&imeta, meta)?;
        let keys = &bound.0;
        let key: Vec<Datum> =
            keys.iter().map(|k| eval(k, row, &ctx.eval_ctx)).collect::<PgResult<_>>()?;
        if key.iter().any(Datum::is_null) {
            continue; // SQL: NULLs never conflict
        }
        let istore = ctx.engine.index_store(*iid)?;
        let IndexStore::BTree(b) = &*istore else { continue };
        for rid in b.get_eq(&key) {
            if Some(rid) == exclude {
                continue;
            }
            for version in heap.live_or_pending_versions(&ctx.engine.txns, rid) {
                // re-check key equality (index entries can be stale)
                let vkey: Vec<Datum> = keys
                    .iter()
                    .map(|k| eval(k, &version, &ctx.eval_ctx))
                    .collect::<PgResult<_>>()?;
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
        ctx.cost.add_cpu(ctx.engine.config.cost.index_descend_ms);
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
    ctx.cost.add_tuples(&ctx.engine.config.cost, heap.live_estimate());
    Ok(found)
}

/// Bound `DEFAULT` expression of every column `target_cols` leaves out.
fn bind_defaults(meta: &TableMeta, target_cols: &[usize]) -> PgResult<Vec<Option<BExpr>>> {
    let no_columns = RowScope::default();
    meta.columns
        .iter()
        .enumerate()
        .map(|(i, col)| match &col.default {
            Some(d) if !target_cols.contains(&i) => bind(d, &no_columns).map(Some),
            _ => Ok(None),
        })
        .collect()
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

/// Build one full row from a partial column list, applying defaults, casts,
/// and NOT NULL checks.
fn complete_row(
    ctx: &ExecCtx,
    meta: &TableMeta,
    target_cols: &[usize],
    defaults: &[Option<BExpr>],
    values: Vec<Datum>,
) -> PgResult<Row> {
    if values.len() != target_cols.len() {
        return Err(PgError::new(
            ErrorCode::Syntax,
            format!("INSERT has {} expressions but {} target columns", values.len(), target_cols.len()),
        ));
    }
    let mut row: Row = vec![Datum::Null; meta.columns.len()];
    for (&c, v) in target_cols.iter().zip(values) {
        row[c] = v;
    }
    for (i, col) in meta.columns.iter().enumerate() {
        if let Some(d) = &defaults[i] {
            row[i] = eval(d, &Vec::new(), &ctx.eval_ctx)?;
        }
        if !row[i].is_null() {
            row[i] = row[i].cast_to(col.ty)?;
        } else if col.not_null {
            return Err(PgError::new(
                ErrorCode::NotNullViolation,
                format!("null value in column \"{}\" violates not-null constraint", col.name),
            ));
        }
    }
    Ok(row)
}

fn require_xid(ctx: &ExecCtx) -> PgResult<()> {
    if ctx.xid == INVALID_XID {
        return Err(PgError::internal("DML requires an active transaction"));
    }
    Ok(())
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
    meta: Arc<TableMeta>,
    target_cols: Vec<usize>,
    defaults: Vec<Option<BExpr>>,
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
    let target_cols = resolve_target_cols(&meta, &ins.columns)?;
    let defaults = bind_defaults(&meta, &target_cols)?;
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
    Ok(InsertPlan { meta, target_cols, defaults, rows, conflict })
}

/// Execute INSERT. Returns the number of rows inserted (ON CONFLICT DO
/// NOTHING rows are not counted; DO UPDATE rows are).
pub fn run_insert(ctx: &mut ExecCtx, plan: &InsertPlan) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = &*plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    // materialise source rows first (so INSERT INTO t SELECT FROM t is sane)
    let source_rows: Vec<Row> = match &plan.rows {
        InsertRows::Values(rows) => rows
            .iter()
            .map(|r| r.iter().map(|b| eval(b, &Vec::new(), &ctx.eval_ctx)).collect())
            .collect::<PgResult<_>>()?,
        InsertRows::Query(select) => run_select_plan(ctx, select)?.1,
    };

    let store = ctx.engine.store(meta.id)?;
    match &*store {
        TableStore::Columnar(col) => {
            if plan.conflict.is_some() {
                return Err(PgError::unsupported("ON CONFLICT on columnar tables"));
            }
            let mut batch = Vec::with_capacity(source_rows.len());
            for values in source_rows {
                let row = complete_row(ctx, meta, &plan.target_cols, &plan.defaults, values)?;
                charge_write(ctx, meta, &row)?;
                batch.push(row);
            }
            let n = batch.len() as u64;
            let seq = col.append(ctx.xid, batch.clone(), meta.columns.len())?;
            ctx.engine.wal.append(WalRecord::ColumnarAppend {
                xid: ctx.xid,
                table: meta.id,
                seq,
                rows: batch,
            });
            Ok(n)
        }
        TableStore::Heap(heap) => {
            let mut count = 0u64;
            for values in source_rows {
                let row = complete_row(ctx, meta, &plan.target_cols, &plan.defaults, values)?;
                // ON CONFLICT: look for an existing live row on the target key
                if let Some(oc) = &plan.conflict {
                    if let Some(existing_rid) = find_conflict(ctx, meta, &oc.cols, &row)? {
                        if let Some(assignments) = &oc.update {
                            apply_conflict_update(ctx, meta, existing_rid, &row, assignments)?;
                            count += 1;
                        }
                        continue;
                    }
                }
                check_unique(ctx, meta, &row, None)?;
                check_fk_outbound(ctx, meta, &row)?;
                let row_id = heap.insert(ctx.xid, row.clone());
                ctx.engine.index_insert_row(meta, row_id, &row)?;
                charge_write(ctx, meta, &row)?;
                ctx.engine.wal.append(WalRecord::Insert {
                    xid: ctx.xid,
                    table: meta.id,
                    row_id,
                    row,
                });
                count += 1;
            }
            Ok(count)
        }
    }
}

/// Find a live row conflicting with `row` on the ON CONFLICT target columns.
fn find_conflict(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    cols: &[usize],
    row: &Row,
) -> PgResult<Option<u64>> {
    let values: Vec<Datum> = cols.iter().map(|&c| row[c].clone()).collect();
    if values.iter().any(Datum::is_null) {
        return Ok(None);
    }
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let matches = |v: &Row| {
        cols.iter()
            .zip(&values)
            .all(|(&c, val)| v[c].sql_cmp(val) == Some(std::cmp::Ordering::Equal))
    };
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
            if heap.with_visible_version(&ctx.engine.txns, &ctx.snap, rid, matches) == Some(true) {
                return Ok(Some(rid));
            }
        }
        return Ok(None);
    }
    let mut found = None;
    heap.scan_visible(&ctx.engine.txns, &ctx.snap, |t| {
        if found.is_none() && matches(&t.data) {
            found = Some(t.row_id);
        }
    });
    Ok(found)
}

/// ON CONFLICT DO UPDATE: assignments may reference the table and
/// `excluded.*` (the proposed row).
fn apply_conflict_update(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    row_id: u64,
    proposed: &Row,
    assignments: &[(usize, BExpr)],
) -> PgResult<()> {
    ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
    let fresh = ctx.engine.txns.snapshot(ctx.xid);
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
        return Ok(()); // row vanished; PostgreSQL would retry, we no-op
    };
    let eval_row: Row = current.iter().chain(proposed).cloned().collect();
    let mut new_row = current.clone();
    for (c, b) in assignments {
        let v = eval(b, &eval_row, &ctx.eval_ctx)?;
        new_row[*c] = if v.is_null() { v } else { v.cast_to(meta.columns[*c].ty)? };
        if new_row[*c].is_null() && meta.columns[*c].not_null {
            return Err(PgError::new(
                ErrorCode::NotNullViolation,
                format!("null value in column \"{}\"", meta.columns[*c].name),
            ));
        }
    }
    check_unique(ctx, meta, &new_row, Some(row_id))?;
    check_fk_outbound(ctx, meta, &new_row)?;
    let outcome = heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)?;
    if outcome != ExpireOutcome::Expired {
        return Ok(());
    }
    log_new_version(ctx, meta, heap, row_id, current, new_row)
}

/// The write half of UPDATE, once the old version is expired: the new image
/// goes to the heap, its indexes and the WAL. `old_row` and `new_row` are
/// moved, not copied; the heap and the WAL each need a row spine of their
/// own, and that one clone shares every payload.
fn log_new_version(
    ctx: &mut ExecCtx,
    meta: &TableMeta,
    heap: &HeapStore,
    row_id: u64,
    old_row: Row,
    new_row: Row,
) -> PgResult<()> {
    heap.insert_version(row_id, ctx.xid, new_row.clone());
    ctx.engine.index_insert_row(meta, row_id, &new_row)?;
    charge_write(ctx, meta, &new_row)?;
    ctx.engine.wal.append(WalRecord::Update { xid: ctx.xid, table: meta.id, row_id, old_row, new_row });
    Ok(())
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
        scan_table(ctx, meta.id, index, &self.filter, None, |row_id, _| row_id)
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
    require_xid(ctx)?;
    let meta = &*plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let targets = plan.targets.run(ctx, meta)?;
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let mut count = 0u64;
    for row_id in targets {
        ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
        let fresh = ctx.engine.txns.snapshot(ctx.xid);
        let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
            continue; // deleted meanwhile
        };
        // EvalPlanQual: the predicate must still hold on the latest version
        if !passes(&plan.targets.filter, &current, &ctx.eval_ctx)? {
            continue;
        }
        let mut new_row = current.clone();
        for (c, b) in &plan.assignments {
            let v = eval(b, &current, &ctx.eval_ctx)?;
            new_row[*c] = if v.is_null() { v } else { v.cast_to(meta.columns[*c].ty)? };
            if new_row[*c].is_null() && meta.columns[*c].not_null {
                return Err(PgError::new(
                    ErrorCode::NotNullViolation,
                    format!("null value in column \"{}\"", meta.columns[*c].name),
                ));
            }
        }
        check_unique(ctx, meta, &new_row, Some(row_id))?;
        check_fk_outbound(ctx, meta, &new_row)?;
        match heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)? {
            ExpireOutcome::Expired => {}
            _ => continue,
        }
        log_new_version(ctx, meta, heap, row_id, current, new_row)?;
        count += 1;
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
    require_xid(ctx)?;
    let meta = &*plan.meta;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let targets = plan.targets.run(ctx, meta)?;
    let store = ctx.engine.store(meta.id)?;
    let heap = store.heap()?;
    let mut count = 0u64;
    for row_id in targets {
        ctx.engine.locks.acquire(ctx.xid, LockKey::Row(meta.id, row_id), LockMode::Exclusive)?;
        let fresh = ctx.engine.txns.snapshot(ctx.xid);
        let Some(current) = heap.visible_version(&ctx.engine.txns, &fresh, row_id) else {
            continue;
        };
        if !passes(&plan.targets.filter, &current, &ctx.eval_ctx)? {
            continue;
        }
        check_fk_inbound(ctx, meta, &current)?;
        match heap.expire(&ctx.engine.txns, &fresh, row_id, ctx.xid)? {
            ExpireOutcome::Expired => {}
            _ => continue,
        }
        heap.adjust_live(-1);
        ctx.engine.wal.append(WalRecord::Delete {
            xid: ctx.xid,
            table: meta.id,
            row_id,
            row: current,
        });
        ctx.cost.add_tuples(&ctx.engine.config.cost, 1);
        count += 1;
    }
    Ok(count)
}

/// COPY FROM: bulk-append pre-parsed rows. The fast ingest path: no planning,
/// single table lock, batched constraint checks.
pub fn exec_copy(
    ctx: &mut ExecCtx,
    table: &str,
    columns: &[String],
    rows: Vec<Row>,
) -> PgResult<u64> {
    require_xid(ctx)?;
    let meta = ctx.engine.table_meta(table)?;
    ctx.engine.locks.acquire(ctx.xid, LockKey::Table(meta.id), LockMode::Shared)?;
    let target_cols = resolve_target_cols(&meta, columns)?;
    let defaults = bind_defaults(&meta, &target_cols)?;
    let store = ctx.engine.store(meta.id)?;
    match &*store {
        TableStore::Columnar(col) => {
            let mut batch = Vec::with_capacity(rows.len());
            for values in rows {
                let row = complete_row(ctx, &meta, &target_cols, &defaults, values)?;
                charge_write(ctx, &meta, &row)?;
                batch.push(row);
            }
            let n = batch.len() as u64;
            let seq = col.append(ctx.xid, batch.clone(), meta.columns.len())?;
            ctx.engine.wal.append(WalRecord::ColumnarAppend {
                xid: ctx.xid,
                table: meta.id,
                seq,
                rows: batch,
            });
            Ok(n)
        }
        TableStore::Heap(heap) => {
            let mut count = 0u64;
            for values in rows {
                let row = complete_row(ctx, &meta, &target_cols, &defaults, values)?;
                check_unique(ctx, &meta, &row, None)?;
                check_fk_outbound(ctx, &meta, &row)?;
                let row_id = heap.insert(ctx.xid, row.clone());
                ctx.engine.index_insert_row(&meta, row_id, &row)?;
                charge_write(ctx, &meta, &row)?;
                ctx.engine.wal.append(WalRecord::Insert {
                    xid: ctx.xid,
                    table: meta.id,
                    row_id,
                    row,
                });
                count += 1;
            }
            Ok(count)
        }
    }
}
