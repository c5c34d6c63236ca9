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

use crate::metadata::{Metadata, NodeId, PartitionMethod, ShardId};
use analysis::{judge, Judgement, Reason};
use merge::MergePlan;
use pgmini::error::{ErrorCode, PgError, PgResult};
use sqlparse::ast::{
    Assignment, ConflictAction, Expr, Insert, InsertSource, OnConflict, Statement,
};
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
    pub is_write: bool,
    /// Shards this task touches (diagnostics / EXPLAIN).
    pub shards: Vec<ShardId>,
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
    /// Combine partial aggregates (see [`merge::MergePlan`]).
    GroupAgg(Box<MergePlan>),
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
    Ok(Task {
        node: bucket_node_of(meta, anchor, bucket)?,
        group: Some((anchor.colocation_id, bucket)),
        stmt: Arc::new(rewrite::rewrite_statement(stmt, &bucket_name_map(meta, bucket))),
        is_write,
        shards: vec![anchor.shards[bucket]],
    })
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
            let (dist_col, dist_idx) = dt.dist_column.as_ref()?;
            let InsertSource::Values(rows) = &ins.source else { return None };
            if rows.len() != 1 {
                return None;
            }
            let pos = if ins.columns.is_empty() {
                *dist_idx
            } else {
                ins.columns.iter().position(|c| c == dist_col)?
            };
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
/// The cheap checks mirror the paper: no joins, no subqueries, one table.
pub fn try_fast_path(stmt: &Statement, meta: &Metadata) -> PgResult<Option<DistPlan>> {
    let (table, bucket_value): (&str, Option<pgmini::types::Datum>) = match stmt {
        Statement::Select(sel) => {
            if sel.from.len() != 1 || sel.group_by.len() > 1 {
                return Ok(None);
            }
            let sqlparse::ast::TableRef::Table { name, .. } = &sel.from[0] else {
                return Ok(None);
            };
            let Some(w) = &sel.where_clause else { return Ok(None) };
            if w.contains_subquery() {
                return Ok(None);
            }
            (name.as_str(), fast_dist_value(w, name, meta))
        }
        Statement::Update(u) => {
            let Some(w) = &u.where_clause else { return Ok(None) };
            if w.contains_subquery() {
                return Ok(None);
            }
            (u.table.as_str(), fast_dist_value(w, &u.table, meta))
        }
        Statement::Delete(d) => {
            let Some(w) = &d.where_clause else { return Ok(None) };
            if w.contains_subquery() {
                return Ok(None);
            }
            (d.table.as_str(), fast_dist_value(w, &d.table, meta))
        }
        Statement::Insert(ins) => {
            // single-row VALUES insert
            let InsertSource::Values(rows) = &ins.source else { return Ok(None) };
            if rows.len() != 1 {
                return Ok(None);
            }
            let Some(dt) = meta.table(&ins.table) else { return Ok(None) };
            let Some((dist_col, dist_idx)) = &dt.dist_column else { return Ok(None) };
            let pos = if ins.columns.is_empty() {
                *dist_idx
            } else {
                match ins.columns.iter().position(|c| c == dist_col) {
                    Some(p) => p,
                    None => {
                        return Err(PgError::new(
                            ErrorCode::NotNullViolation,
                            format!("cannot insert into \"{}\" without its distribution column \"{dist_col}\"", ins.table),
                        ))
                    }
                }
            };
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
        return Err(PgError::new(
            ErrorCode::NotNullViolation,
            "distribution column value cannot be NULL",
        ));
    }
    let bucket = meta.shard_index_for_value(table, &value)?;
    let node = bucket_node(meta, table, bucket)?;
    let map = bucket_name_map(meta, bucket);
    let rewritten = rewrite::rewrite_statement(stmt, &map);
    let is_write = statement_is_write(stmt);
    Ok(Some(DistPlan {
        kind: PlannerKind::FastPath,
        tasks: vec![Task {
            node,
            group: Some((dt.colocation_id, bucket)),
            stmt: Arc::new(rewritten),
            is_write,
            shards: vec![dt.shards[bucket]],
        }],
        merge: if is_write { Merge::AffectedSum } else { Merge::PassThrough },
        is_write,
        used_subplans: false,
        prep: Vec::new(),
    }))
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
    Ok(Some(DistPlan {
        kind: PlannerKind::Router,
        tasks: vec![Task {
            node,
            group: Some((anchor.colocation_id, bucket)),
            stmt: Arc::new(rewritten),
            is_write,
            shards,
        }],
        merge: if is_write { Merge::AffectedSum } else { Merge::PassThrough },
        is_write,
        used_subplans: false,
        prep: Vec::new(),
    }))
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
    // INSERT..SELECT into a reference table from distributed tables is not
    // a simple replicated write
    if let Statement::Insert(ins) = stmt {
        if let InsertSource::Query(sel) = &ins.source {
            let inner = rewrite::select_tables(sel);
            if inner.iter().any(|t| {
                meta.table(t).is_some_and(|x| !x.is_reference())
            }) {
                return Err(PgError::unsupported(
                    "INSERT INTO reference table SELECT FROM distributed table",
                ));
            }
        }
    }
    let shard = meta.shard(dt.shards[0])?;
    let map = |n: &str| -> Option<String> {
        meta.table(n).map(|t| {
            meta.shard(t.shards[0]).expect("reference shard").physical_name()
        })
    };
    // one rewritten AST shared across all placements (no per-placement clone)
    let rewritten = Arc::new(rewrite::rewrite_statement(stmt, &map));
    let tasks: Vec<Task> = shard
        .placements
        .iter()
        .map(|&node| Task {
            node,
            group: None,
            stmt: Arc::clone(&rewritten),
            is_write: true,
            shards: vec![shard.id],
        })
        .collect();
    Ok(Some(DistPlan {
        kind: PlannerKind::Router,
        tasks,
        merge: Merge::AffectedFirst,
        is_write: true,
        used_subplans: false,
        prep: Vec::new(),
    }))
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
    let map = |n: &str| -> Option<String> {
        meta.table(n)
            .map(|t| meta.shard(t.shards[0]).expect("reference shard").physical_name())
    };
    let rewritten = Arc::new(rewrite::rewrite_statement(stmt, &map));
    Ok(DistPlan {
        kind: PlannerKind::Router,
        tasks: vec![Task { node, group: None, stmt: rewritten, is_write: false, shards }],
        merge: Merge::PassThrough,
        is_write: false,
        used_subplans: false,
        prep: Vec::new(),
    })
}
