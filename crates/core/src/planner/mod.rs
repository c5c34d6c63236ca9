//! The four-tier distributed query planner (§3.5, Figure 4).
//!
//! For each statement citrus iterates the planners from lowest to highest
//! overhead: **fast path** (single-table CRUD pinned to one shard), **router**
//! (arbitrary SQL scoped to one co-located shard set), **logical pushdown**
//! (multi-shard fan-out with a coordinator merge step), and **logical join
//! order** (non-co-located joins via broadcast/repartition subplans).

pub mod analysis;
pub mod cache;
pub mod join_order;
pub mod merge;
pub mod pushdown;
pub mod rewrite;

use crate::metadata::{DistTable, Metadata, NodeId, PartitionMethod, ShardId};
use analysis::{judge, Judgement, Reason};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::types::{Datum, Row};
use sqlparse::ast::{
    Assignment, ConflictAction, CopyStmt, Expr, Insert, InsertSource, OnConflict, Statement,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which planner produced a plan (exposed via EXPLAIN and used by the
/// planner-tier benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerKind {
    FastPath,
    Router,
    Pushdown,
    JoinOrder,
}

impl PlannerKind {
    pub fn as_str(self) -> &'static str {
        match self {
            PlannerKind::FastPath => "Fast Path Router",
            PlannerKind::Router => "Router",
            PlannerKind::Pushdown => "Logical Pushdown",
            PlannerKind::JoinOrder => "Logical Join Order",
        }
    }
}

/// One unit of remote work: a rewritten statement against one placement.
#[derive(Debug, Clone)]
pub struct Task {
    pub node: NodeId,
    /// Co-located shard-group key (colocation id, bucket index) for the
    /// placement-connection affinity of §3.6.1. `None` for reference-table
    /// tasks.
    pub group: Option<(u32, usize)>,
    /// The rewritten statement. Shared — a reference-table write builds one
    /// task per placement off a single rewritten statement, and the parallel
    /// fan-out hands tasks to worker threads without deep-copying ASTs.
    pub stmt: Arc<Statement>,
    /// The rows of one shard's batch of a distributed COPY (§3.8). Only
    /// [`Task::copy`] sets them, together with their `COPY shard FROM STDIN`
    /// statement. Immutable: each run loads its own copy of the rows (their
    /// values are shared), so a plan can run again.
    copy_rows: Option<Arc<[Row]>>,
    pub is_write: bool,
    /// Shards this task touches (diagnostics / EXPLAIN).
    pub shards: Vec<ShardId>,
}

impl Task {
    /// A task running `stmt` on `node`.
    pub(crate) fn new(
        node: NodeId,
        group: Option<(u32, usize)>,
        stmt: Arc<Statement>,
        is_write: bool,
        shards: Vec<ShardId>,
    ) -> Task {
        Task { node, group, stmt, copy_rows: None, is_write, shards }
    }

    /// A COPY batch: `rows`, written with the column list `columns`, loaded
    /// into `shard`'s placement on `node`, whose table is `physical`.
    pub(crate) fn copy(
        node: NodeId,
        group: Option<(u32, usize)>,
        shard: ShardId,
        physical: &str,
        columns: &[String],
        rows: Arc<[Row]>,
    ) -> Task {
        let stmt = Arc::new(crate::copy::statement(physical, columns));
        Task { node, group, stmt, copy_rows: Some(rows), is_write: true, shards: vec![shard] }
    }

    /// The COPY batch this task loads, with its target and column list.
    pub(crate) fn copy_batch(&self) -> Option<(&CopyStmt, &[Row])> {
        match (&*self.stmt, &self.copy_rows) {
            (Statement::Copy(copy), Some(rows)) => Some((copy, rows)),
            _ => None,
        }
    }
}

/// A sort column for the coordinator's re-sort: either a plain index into
/// the worker row, or the j-th *hidden* column appended at the end of each
/// worker row. End-relative references are needed when the projection holds
/// a wildcard — its expansion arity is unknown at plan time, so only
/// positions counted from the end of the row are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortCol {
    Index(usize),
    Appended(usize),
}

/// How task results combine on the coordinator.
#[derive(Debug, Clone)]
pub enum Merge {
    /// Single task: pass its result through.
    PassThrough,
    /// Concatenate rows, then optionally re-sort / limit / de-duplicate.
    Concat {
        sort: Vec<(SortCol, bool)>,
        limit: Option<u64>,
        offset: Option<u64>,
        distinct: bool,
        /// Output arity (hidden sort columns beyond this are dropped);
        /// `usize::MAX` means "wildcard projection — arity only known at
        /// merge time", in which case `appended` hidden columns are dropped
        /// from the end instead.
        visible: usize,
        /// Hidden `__ordN` sort columns appended after the projection.
        appended: usize,
    },
    /// Combine partial aggregates: pgmini's finish stage whose aggregate
    /// stage groups the task rows on their leading key columns and combines
    /// each partial column by its call's kind (a count or sum as a sum, a
    /// min or max as itself, DISTINCT or not). Its HAVING, projection and
    /// ORDER BY are those of pgmini's own aggregate extraction
    /// ([`pgmini::plan::aggregation`]); see [`merge::split_aggregation`].
    GroupAgg(Box<pgmini::plan::FinishStage>),
    /// Sum DML row counts.
    AffectedSum,
    /// Reference-table write: every placement ran it; report one count.
    AffectedFirst,
}

/// A planned distributed statement.
#[derive(Debug, Clone)]
pub struct DistPlan {
    pub kind: PlannerKind,
    pub tasks: Vec<Task>,
    pub merge: Merge,
    pub is_write: bool,
    /// Subplan results were broadcast (intermediate results); EXPLAIN notes it.
    pub used_subplans: bool,
    /// Data-movement steps run before the main tasks (broadcast/repartition
    /// intermediate results of the join-order planner).
    pub prep: Vec<join_order::PrepStep>,
}

impl DistPlan {
    /// A plan of `tasks` alone: no subplans, no data-movement steps.
    pub(crate) fn of(kind: PlannerKind, tasks: Vec<Task>, merge: Merge, is_write: bool) -> Self {
        DistPlan { kind, tasks, merge, is_write, used_subplans: false, prep: Vec::new() }
    }
}

/// Services the planner needs from the extension: executing subplans
/// (recursive planning of WHERE-clause subqueries over distributed tables).
pub trait SubplanExecutor {
    fn run_distributed_subquery(
        &mut self,
        sel: &sqlparse::ast::Select,
    ) -> PgResult<Vec<pgmini::types::Row>>;

    /// Access to the richer environment the join-order planner needs
    /// (row counts, schemas). `None` disables tier 4.
    fn as_join_order_env(&mut self) -> Option<&mut dyn join_order::JoinOrderEnv> {
        None
    }
}

/// Plan a statement against the distribution metadata. Returns `None` when
/// the statement touches no citrus tables (pure local statement).
pub fn plan_statement(
    stmt: &Statement,
    meta: &Metadata,
    self_node: NodeId,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<Option<DistPlan>> {
    let tables = rewrite::collect_tables(stmt);
    let citrus_tables: Vec<&str> =
        tables.iter().filter(|t| meta.is_citrus_table(t)).map(String::as_str).collect();
    if citrus_tables.is_empty() {
        return Ok(None);
    }
    if citrus_tables.len() != tables.len() {
        let locals: Vec<&String> =
            tables.iter().filter(|t| !meta.is_citrus_table(t)).collect();
        return Err(PgError::unsupported(format!(
            "joining distributed tables with local tables is not supported ({locals:?})"
        )));
    }

    match stmt {
        Statement::Update(u) => refuse_key_assignment(&u.table, &u.assignments, meta)?,
        Statement::Insert(ins) => refuse_key_assignment(&ins.table, upsert_assignments(ins), meta)?,
        _ => {}
    }
    // writes to reference tables replicate to every placement
    if let Some(plan) = try_reference_write(stmt, meta)? {
        return Ok(Some(plan));
    }

    // tier 1: fast path — one table meets nothing else, so there is nothing
    // to judge
    if tables.len() == 1 {
        if let Some(plan) = try_fast_path(stmt, meta)? {
            return Ok(Some(plan));
        }
    }
    // the single-group planners need every distributed relation in one
    // co-location group; the join-order planner relaxes this
    match judge(stmt, meta) {
        // reference-table-only statements: route to the local replica
        Judgement::NoDistributedRelation => {
            return Ok(Some(reference_read_plan(stmt, meta, self_node)?));
        }
        Judgement::MustMove(Reason::NotColocated { .. }) => {}
        judgement => {
            // tier 2: router
            if let Judgement::SingleBucket(bucket) = judgement {
                if let Some(plan) = route_to_bucket(stmt, meta, bucket)? {
                    return Ok(Some(plan));
                }
            }
            // tier 3: logical pushdown
            if let Some(plan) = pushdown::try_pushdown(stmt, meta, self_node, subplans)? {
                return Ok(Some(plan));
            }
        }
    }
    // tier 4: logical join order (non-co-located joins)
    if let Some(plan) = join_order::try_join_order(stmt, meta, subplans)? {
        return Ok(Some(plan));
    }
    Err(PgError::unsupported(
        "could not create a distributed plan for this query (complex non-co-located \
         or correlated shapes are not supported)",
    ))
}

/// Refuse assignments to a hash-distributed table's distribution column
/// (`UPDATE .. SET`, `ON CONFLICT DO UPDATE SET`), as Citus does: the row
/// would stay in the shard its old value hashes to, where a query on the new
/// value never looks. It also keeps the column free of NULLs, which a
/// pushed-down `NOT IN` semi-join relies on. A refused shape never enters the
/// plan cache, so a cache hit needs no check of its own.
pub(crate) fn refuse_key_assignment(
    table: &str,
    assignments: &[Assignment],
    meta: &Metadata,
) -> PgResult<()> {
    let key = meta.table(table).and_then(|dt| dt.dist_column.as_ref()).map(|(col, _)| col);
    if assignments.iter().any(|a| Some(&a.column) == key) {
        return Err(PgError::unsupported("modifying the partition value of rows is not allowed"));
    }
    Ok(())
}

/// The `ON CONFLICT DO UPDATE SET` assignments of an insert.
pub(crate) fn upsert_assignments(ins: &Insert) -> &[Assignment] {
    match &ins.on_conflict {
        Some(OnConflict { action: ConflictAction::Update(assignments), .. }) => assignments,
        _ => &[],
    }
}

/// Plan with one specific tier instead of the usual lowest-overhead-first
/// iteration. Returns `None` when that tier cannot handle the statement.
/// Used by tests asserting that every tier able to plan a query agrees on
/// its results, and by EXPLAIN diagnostics.
pub fn plan_with_tier(
    stmt: &Statement,
    meta: &Metadata,
    self_node: NodeId,
    tier: PlannerKind,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<Option<DistPlan>> {
    match tier {
        PlannerKind::FastPath => try_fast_path(stmt, meta),
        PlannerKind::Router => try_router(stmt, meta),
        PlannerKind::Pushdown => pushdown::try_pushdown(stmt, meta, self_node, subplans),
        PlannerKind::JoinOrder => join_order::try_join_order(stmt, meta, subplans),
    }
}

/// Map (table → shard physical name) for one bucket.
pub fn bucket_name_map<'a>(
    meta: &'a Metadata,
    bucket: usize,
) -> impl Fn(&str) -> Option<String> + 'a {
    move |name: &str| {
        let dt = meta.table(name)?;
        let sid = match dt.method {
            PartitionMethod::Reference => dt.shards[0],
            PartitionMethod::Hash => *dt.shards.get(bucket)?,
        };
        meta.shard(sid).ok().map(|s| s.physical_name())
    }
}

/// The node hosting bucket `bucket` of `table`'s colocation group.
pub fn bucket_node(meta: &Metadata, table: &str, bucket: usize) -> PgResult<NodeId> {
    bucket_node_of(meta, meta.require_table(table)?, bucket)
}

/// Same, with the table metadata already resolved — lets multi-shard
/// planners look the table up once instead of once per bucket.
pub fn bucket_node_of(
    meta: &Metadata,
    dt: &crate::metadata::DistTable,
    bucket: usize,
) -> PgResult<NodeId> {
    let sid = dt.shards.get(bucket).copied().ok_or_else(|| {
        PgError::internal(format!("bucket {bucket} out of range for {}", dt.name))
    })?;
    let shard = meta.shard(sid)?;
    shard
        .placements
        .first()
        .copied()
        .ok_or_else(|| PgError::internal("shard has no placements"))
}

/// The task running `stmt` against bucket `bucket` of `anchor`'s co-location
/// group: tables renamed to that bucket's shards, placed where they live.
pub fn bucket_task(
    meta: &Metadata,
    anchor: &crate::metadata::DistTable,
    bucket: usize,
    stmt: &Statement,
    is_write: bool,
) -> PgResult<Task> {
    Ok(Task::new(
        bucket_node_of(meta, anchor, bucket)?,
        Some((anchor.colocation_id, bucket)),
        Arc::new(rewrite::rewrite_statement(stmt, &bucket_name_map(meta, bucket))),
        is_write,
        vec![anchor.shards[bucket]],
    ))
}

/// Where a hash table's distribution value sits in rows written with the
/// column list `columns` (empty: the table's own column order). A list that
/// leaves the column out is refused like a NULL value.
pub(crate) fn key_position(dt: &DistTable, columns: &[String]) -> PgResult<usize> {
    let (col, idx) = dt
        .dist_column
        .as_ref()
        .ok_or_else(|| PgError::internal(format!("{} has no distribution column", dt.name)))?;
    if columns.is_empty() {
        return Ok(*idx);
    }
    columns.iter().position(|c| c == col).ok_or_else(|| null_key(dt))
}

/// The refusal of a row without a distribution value, NULL or left out.
fn null_key(dt: &DistTable) -> PgError {
    let col = dt.dist_column.as_ref().map_or("", |(col, _)| col.as_str());
    PgError::new(
        ErrorCode::NotNullViolation,
        format!("distribution column \"{col}\" of \"{}\" cannot be NULL", dt.name),
    )
}

/// The one row partitioner, for COPY, multi-row `VALUES` and the loads of
/// INSERT..SELECT: `rows`, written with the column list `columns`, split into
/// one batch per bucket of hash table `dt`, in bucket order. `value` reads a
/// row's distribution value.
pub(crate) fn partition_rows<T>(
    meta: &Metadata,
    dt: &DistTable,
    columns: &[String],
    rows: impl IntoIterator<Item = Vec<T>>,
    value: impl Fn(&T) -> PgResult<Datum>,
) -> PgResult<BTreeMap<usize, Vec<Vec<T>>>> {
    let pos = key_position(dt, columns)?;
    let mut buckets: BTreeMap<usize, Vec<Vec<T>>> = BTreeMap::new();
    for row in rows {
        let v = match row.get(pos) {
            Some(x) => value(x)?,
            None => Datum::Null,
        };
        if v.is_null() {
            return Err(null_key(dt));
        }
        buckets.entry(meta.shard_index_for_value(&dt.name, &v)?).or_default().push(row);
    }
    Ok(buckets)
}

fn statement_is_write(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_))
}

/// MX session routing (§3.2.1): the node able to plan and execute this
/// statement entirely locally, when its shape pins it to one hash bucket.
/// `None` escalates to a full coordinator — multi-shard shapes,
/// reference-table writes, DDL/utility statements, UDF calls, and
/// statements touching no citrus tables at all.
pub fn route_node(stmt: &Statement, meta: &Metadata) -> Option<NodeId> {
    match stmt {
        Statement::Insert(ins) => {
            // mirror the fast-path dist-value extraction: single-row VALUES
            // with a constant distribution column
            let dt = meta.table(&ins.table)?;
            if dt.is_reference() {
                return None;
            }
            let InsertSource::Values(rows) = &ins.source else { return None };
            if rows.len() != 1 {
                return None;
            }
            let pos = key_position(dt, &ins.columns).ok()?;
            let value = rows[0].get(pos).and_then(analysis::const_datum)?;
            if value.is_null() {
                return None;
            }
            meta.node_for_key(&ins.table, &value).ok()
        }
        Statement::Select(_) | Statement::Update(_) | Statement::Delete(_) => {
            let Judgement::SingleBucket(bucket) = judge(stmt, meta) else { return None };
            let tables = rewrite::collect_tables(stmt);
            let anchor =
                tables.iter().filter_map(|t| meta.table(t)).find(|dt| !dt.is_reference())?;
            bucket_node_of(meta, anchor, bucket).ok()
        }
        _ => None,
    }
}

/// Tier 1: single-table CRUD with a literal distribution-key filter.
/// The cheap checks mirror the paper: no joins, no subqueries (in any
/// clause, one would see a single shard), one table.
pub fn try_fast_path(stmt: &Statement, meta: &Metadata) -> PgResult<Option<DistPlan>> {
    if sqlparse::shape::facts(stmt).nested_select {
        return Ok(None);
    }
    let (table, bucket_value): (&str, Option<pgmini::types::Datum>) = match stmt {
        Statement::Select(sel) => {
            if sel.from.len() != 1 || sel.group_by.len() > 1 {
                return Ok(None);
            }
            let sqlparse::ast::TableRef::Table { name, .. } = &sel.from[0] else {
                return Ok(None);
            };
            let Some(w) = &sel.where_clause else { return Ok(None) };
            (name.as_str(), fast_dist_value(w, name, meta))
        }
        Statement::Update(u) => {
            let Some(w) = &u.where_clause else { return Ok(None) };
            (u.table.as_str(), fast_dist_value(w, &u.table, meta))
        }
        Statement::Delete(d) => {
            let Some(w) = &d.where_clause else { return Ok(None) };
            (d.table.as_str(), fast_dist_value(w, &d.table, meta))
        }
        Statement::Insert(ins) => {
            // single-row VALUES insert
            let InsertSource::Values(rows) = &ins.source else { return Ok(None) };
            if rows.len() != 1 {
                return Ok(None);
            }
            let Some(dt) = meta.table(&ins.table) else { return Ok(None) };
            if dt.is_reference() {
                return Ok(None);
            }
            let pos = key_position(dt, &ins.columns)?;
            let value = rows[0].get(pos).and_then(analysis::const_datum);
            (ins.table.as_str(), value)
        }
        _ => return Ok(None),
    };
    let Some(dt) = meta.table(table) else { return Ok(None) };
    if dt.is_reference() {
        return Ok(None);
    }
    let Some(value) = bucket_value else { return Ok(None) };
    if value.is_null() {
        return Err(null_key(dt));
    }
    let bucket = meta.shard_index_for_value(table, &value)?;
    let node = bucket_node(meta, table, bucket)?;
    let map = bucket_name_map(meta, bucket);
    let rewritten = rewrite::rewrite_statement(stmt, &map);
    let is_write = statement_is_write(stmt);
    let group = Some((dt.colocation_id, bucket));
    let task = Task::new(node, group, Arc::new(rewritten), is_write, vec![dt.shards[bucket]]);
    let merge = if is_write { Merge::AffectedSum } else { Merge::PassThrough };
    Ok(Some(DistPlan::of(PlannerKind::FastPath, vec![task], merge, is_write)))
}

/// Extract `dist_col = const` from top-level AND conjuncts.
fn fast_dist_value(
    where_clause: &Expr,
    table: &str,
    meta: &Metadata,
) -> Option<pgmini::types::Datum> {
    let dt = meta.table(table)?;
    let (dist_col, _) = dt.dist_column.as_ref()?;
    let mut conjuncts = Vec::new();
    analysis::split_and(where_clause, &mut conjuncts);
    for c in conjuncts {
        if let Expr::Binary { left, op: sqlparse::ast::BinaryOp::Eq, right } = c {
            for (col, konst) in [(left, right), (right, left)] {
                if let Expr::Column { name, .. } = col.as_ref() {
                    if name == dist_col {
                        if let Some(d) = analysis::const_datum(konst) {
                            return Some(d);
                        }
                    }
                }
            }
        }
    }
    None
}

/// Tier 2: arbitrary SQL scoped to one co-located shard set. Delegates the
/// full query (joins, subqueries, FOR UPDATE, everything) to one worker.
pub fn try_router(stmt: &Statement, meta: &Metadata) -> PgResult<Option<DistPlan>> {
    match judge(stmt, meta) {
        Judgement::SingleBucket(bucket) => route_to_bucket(stmt, meta, bucket),
        _ => Ok(None),
    }
}

/// The router's plan for a statement already judged to pin to `bucket`.
fn route_to_bucket(
    stmt: &Statement,
    meta: &Metadata,
    bucket: usize,
) -> PgResult<Option<DistPlan>> {
    // multi-row inserts route only when every row lands in the bucket —
    // handled by pushdown's insert splitting instead
    if let Statement::Insert(ins) = stmt {
        if matches!(&ins.source, InsertSource::Values(rows) if rows.len() > 1) {
            return Ok(None);
        }
        // INSERT..SELECT where source and target agree on the bucket is
        // router-able and lands here naturally
    }
    // find a distributed table to anchor the group key
    let tables = rewrite::collect_tables(stmt);
    let anchor = tables
        .iter()
        .filter_map(|t| meta.table(t))
        .find(|dt| !dt.is_reference())
        .ok_or_else(|| PgError::internal("router with no distributed table"))?;
    let node = bucket_node(meta, &anchor.name, bucket)?;
    let map = bucket_name_map(meta, bucket);
    let rewritten = rewrite::rewrite_statement(stmt, &map);
    let is_write = statement_is_write(stmt);
    let shards: Vec<ShardId> = tables
        .iter()
        .filter_map(|t| meta.table(t))
        .map(|dt| match dt.method {
            PartitionMethod::Reference => dt.shards[0],
            PartitionMethod::Hash => dt.shards[bucket],
        })
        .collect();
    let group = Some((anchor.colocation_id, bucket));
    let task = Task::new(node, group, Arc::new(rewritten), is_write, shards);
    let merge = if is_write { Merge::AffectedSum } else { Merge::PassThrough };
    Ok(Some(DistPlan::of(PlannerKind::Router, vec![task], merge, is_write)))
}

/// Writes to reference tables run on every placement (§3.3.3).
fn try_reference_write(stmt: &Statement, meta: &Metadata) -> PgResult<Option<DistPlan>> {
    let table = match stmt {
        Statement::Insert(ins) => &ins.table,
        Statement::Update(u) => &u.table,
        Statement::Delete(d) => &d.table,
        _ => return Ok(None),
    };
    let Some(dt) = meta.table(table) else { return Ok(None) };
    if !dt.is_reference() {
        return Ok(None);
    }
    // every placement repeats the write: one reading a distributed table, in
    // an INSERT..SELECT source or a subquery of any clause, would see a shard
    let tables = rewrite::collect_tables(stmt);
    if tables.iter().any(|t| meta.table(t).is_some_and(|x| !x.is_reference())) {
        return Err(PgError::unsupported("writing a reference table from a distributed table"));
    }
    let shard = meta.shard(dt.shards[0])?;
    // one rewritten AST shared across all placements (no per-placement clone)
    let rewritten =
        Arc::new(rewrite::rewrite_statement(stmt, &|n| meta.reference_shard_name(n)));
    let tasks: Vec<Task> = shard
        .placements
        .iter()
        .map(|&node| Task::new(node, None, Arc::clone(&rewritten), true, vec![shard.id]))
        .collect();
    Ok(Some(DistPlan::of(PlannerKind::Router, tasks, Merge::AffectedFirst, true)))
}

/// Reads touching only reference tables answer from the local replica when
/// present, else any placement.
pub(crate) fn reference_read_plan(
    stmt: &Statement,
    meta: &Metadata,
    self_node: NodeId,
) -> PgResult<DistPlan> {
    let tables = rewrite::collect_tables(stmt);
    // every reference table must have a common placement; prefer self
    let mut candidates: Option<Vec<NodeId>> = None;
    let mut shards: Vec<ShardId> = Vec::new();
    for t in &tables {
        let dt = meta.require_table(t)?;
        let shard = meta.shard(dt.shards[0])?;
        shards.push(shard.id);
        let placements = shard.placements.clone();
        candidates = Some(match candidates {
            None => placements,
            Some(prev) => prev.into_iter().filter(|n| placements.contains(n)).collect(),
        });
    }
    // a statement with no tables at all (fully-resolved subplans) runs on
    // the coordinating node itself
    let node = match candidates {
        None => self_node,
        Some(c) if c.contains(&self_node) => self_node,
        Some(c) => *c
            .first()
            .ok_or_else(|| PgError::internal("reference tables share no placement"))?,
    };
    let stmt = Arc::new(rewrite::rewrite_statement(stmt, &|n| meta.reference_shard_name(n)));
    let task = Task::new(node, None, stmt, false, shards);
    Ok(DistPlan::of(PlannerKind::Router, vec![task], Merge::PassThrough, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_rows_batches_by_bucket_and_refuses_a_missing_key() {
        let mut m = Metadata::new();
        let cid = m.allocate_colocation_id();
        m.add_hash_table("t", "k", 1, 8, &[NodeId(1), NodeId(2)], cid, None).unwrap();
        let dt = m.table("t").unwrap();
        let key = |d: &Datum| Ok(d.clone());
        // (v, k) rows in table order; a (k, v) column list moves the key
        let rows: Vec<Row> = (0..40).map(|k| vec![Datum::Int(-k), Datum::Int(k)]).collect();
        let swapped: Vec<Row> = rows.iter().map(|r| vec![r[1].clone(), r[0].clone()]).collect();
        let buckets = partition_rows(&m, dt, &[], rows, key).unwrap();
        let by_list = partition_rows(&m, dt, &["k".into(), "v".into()], swapped, key).unwrap();
        assert!(buckets.len() > 1, "40 keys spread over several of 8 buckets");
        assert_eq!(buckets.values().map(Vec::len).sum::<usize>(), 40);
        for (b, batch) in &buckets {
            assert!(batch.iter().all(|r| m.shard_index_for_value("t", &r[1]).unwrap() == *b));
            assert_eq!(by_list[b].len(), batch.len());
        }
        // NULL, a short row, a column list without the key: one refusal
        for (columns, row) in [
            (vec![], vec![Datum::Int(1), Datum::Null]),
            (vec![], vec![Datum::Int(1)]),
            (vec!["v".to_string()], vec![Datum::Int(1)]),
        ] {
            let e = partition_rows(&m, dt, &columns, vec![row], key).unwrap_err();
            assert_eq!(e.code, ErrorCode::NotNullViolation);
            assert_eq!(e.message, "distribution column \"k\" of \"t\" cannot be NULL");
        }
    }
}
