//! Tier 3: the logical pushdown planner (§3.5).
//!
//! Detects whether the whole join tree can be delegated to the workers —
//! all distributed tables co-located and joined on their distribution
//! columns, and no subquery needing a global merge — then fans the rewritten
//! query out to every (pruned) shard. When the top-level GROUP BY does not
//! include the distribution column, aggregates are split into worker partials
//! plus a coordinator merge step ([`super::merge`]).
//!
//! A subquery stays in the shipped query when the co-location judgement says
//! it runs correctly on each shard: over reference tables only, or a
//! co-located semi-join (`key IN (SELECT key …)`). The other subqueries over
//! distributed tables become *subplans*: they are planned recursively,
//! executed first, and their results substituted as constants — citrus's
//! intermediate results.

use super::analysis::{self, judge, judge_select, CoPartitioned, Judgement, MergeNeed};
use super::merge::{split_aggregation, split_concat, Split};
use super::{bucket_task, DistPlan, Merge, PlannerKind, SubplanExecutor, Task};
use crate::metadata::{Metadata, NodeId};
use pgmini::error::{PgError, PgResult};
use pgmini::plan::is_aggregate_query;
use sqlparse::ast::{Expr, Insert, InsertSource, Select, Statement};
use sqlparse::shape::{self, Nested, VisitMut};
use std::borrow::Cow;
use std::ptr;

/// Try to plan a multi-shard statement by pushdown. Assumes all distributed
/// tables referenced share one colocation group (judged by the caller).
pub fn try_pushdown(
    stmt: &Statement,
    meta: &Metadata,
    self_node: NodeId,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<Option<DistPlan>> {
    match stmt {
        Statement::Select(_) | Statement::Update(_) | Statement::Delete(_) => {}
        Statement::Insert(ins) if matches!(ins.source, InsertSource::Values(_)) => {}
        _ => return Ok(None),
    }
    let (stmt, used_subplans) = resolve(stmt, meta, subplans)?;
    let plan = match &*stmt {
        Statement::Select(sel) => match judge_select(sel, meta) {
            // subplan resolution may leave only reference tables behind
            // (e.g. a reference-table query filtered by a distributed
            // subquery); delegate the remainder to the local replica
            Judgement::NoDistributedRelation => super::reference_read_plan(&stmt, meta, self_node)?,
            Judgement::CoPartitioned(cp) => plan_select(sel, meta, &cp)?,
            // the violation names itself (the "Citus does not support X" UX)
            Judgement::MustMove(reason) => return Err(reason.into()),
            Judgement::SingleBucket(_) => {
                return Err(PgError::internal("a SELECT judged on its own pins no bucket"))
            }
        },
        Statement::Insert(ins) => {
            let InsertSource::Values(rows) = &ins.source else { return Ok(None) };
            plan_multi_row_insert(ins, rows.iter().cloned(), meta)?
        }
        _ => plan_multi_shard_dml(&stmt, meta)?,
    };
    Ok(Some(DistPlan { used_subplans, ..plan }))
}

// ---------------- subplans (intermediate results) ----------------

/// `stmt` with the subqueries the judgement lists as needing a subplan
/// materialised ([`analysis::subplans`] for each SELECT level,
/// [`analysis::dml_subplans`] for a DML statement's own clauses), and whether
/// any ran. Each runs first as a distributed query of its own, in walk
/// order, and pgmini's inliner replaces it by its result; every other
/// subquery stays in place and runs on the shards.
fn resolve<'s>(
    stmt: &'s Statement,
    meta: &Metadata,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<(Cow<'s, Statement>, bool)> {
    // a DML statement's own clauses are its only level
    if !matches!(stmt, Statement::Select(_)) && analysis::dml_subplans(stmt, meta).is_empty() {
        return Ok((Cow::Borrowed(stmt), false));
    }
    let mut out = stmt.clone();
    let needed = match &out {
        Statement::Select(sel) => analysis::subplans(sel, meta),
        dml => analysis::dml_subplans(dml, meta),
    };
    let needed = needed.into_iter().map(ptr::from_ref).collect();
    let mut resolver = Resolver { meta, subplans, needed, used: false, error: None };
    shape::walk_mut(&mut out, &mut resolver);
    match resolver.error {
        Some(e) => Err(e),
        None => Ok((Cow::Owned(out), resolver.used)),
    }
}

/// The walk of [`resolve`]. A FROM-subquery is a level of its own and adds
/// its subplans on the way in; an expression subquery is a subplan or stays,
/// and is not walked into either way. Subqueries are told apart by address:
/// the walk moves no `SELECT`, and inlining only drops the ones it ran.
struct Resolver<'p> {
    meta: &'p Metadata,
    subplans: &'p mut dyn SubplanExecutor,
    /// The subqueries to run, of every level entered so far.
    needed: Vec<*const Select>,
    /// Whether any subplan ran.
    used: bool,
    error: Option<PgError>,
}

impl VisitMut for Resolver<'_> {
    fn rewrites_values(&mut self) -> bool {
        false
    }

    fn nested(&mut self, n: Nested<&mut Select, &mut Expr>) -> bool {
        match n {
            Nested::From(q) | Nested::Source(q) => {
                let level = analysis::subplans(q, self.meta);
                self.needed.extend(level.into_iter().map(ptr::from_ref));
                true
            }
            Nested::Expr(e, clause) => {
                let Some(q) = e.subquery() else { return false };
                if self.error.is_none() && self.needed.contains(&ptr::from_ref(q)) {
                    self.used = true;
                    let rows = self.subplans.run_distributed_subquery(q);
                    if let Err(err) = pgmini::plan::inline(e, clause, rows) {
                        self.error = Some(err);
                    }
                }
                false
            }
        }
    }
}

// ---------------- SELECT planning ----------------

fn plan_select(sel: &Select, meta: &Metadata, cp: &CoPartitioned) -> PgResult<DistPlan> {
    // anchor table for placements
    let anchor = meta.require_table(&cp.anchor)?.clone();
    // shard pruning from the level's constraints
    let buckets: Vec<usize> =
        cp.buckets.clone().unwrap_or_else(|| (0..anchor.shards.len()).collect());

    let has_agg = is_aggregate_query(sel);
    let full_pushdown = cp.merge_need(sel) != Some(MergeNeed::Aggregate);

    let read_plan = |split: Split| -> PgResult<DistPlan> {
        let tasks = select_tasks(split.worker, meta, &anchor, &buckets)?;
        Ok(DistPlan::of(PlannerKind::Pushdown, tasks, split.merge, false))
    };

    // Columnar anchors prefer the aggregate split even when the GROUP BY
    // contains the distribution column (where full pushdown would also be
    // legal): the split's worker half is a bare scan→filter→aggregate, the
    // shape the workers fuse into batched columnar kernels.
    if anchor.columnar && has_agg {
        if let Ok(split) = split_aggregation(sel, &cp.key) {
            return read_plan(split);
        }
        // unsplittable aggregate: fall back to full pushdown when legal,
        // otherwise the split below re-runs and surfaces its error
    }

    // the workers run the whole query and the coordinator concatenates, or
    // they run partial aggregates and the coordinator combines them
    read_plan(if full_pushdown { split_concat(sel)? } else { split_aggregation(sel, &cp.key)? })
}

/// One read task per bucket running `worker` against that bucket's shards.
fn select_tasks(
    worker: Select,
    meta: &Metadata,
    anchor: &crate::metadata::DistTable,
    buckets: &[usize],
) -> PgResult<Vec<Task>> {
    let stmt = Statement::Select(Box::new(worker));
    buckets.iter().map(|&b| bucket_task(meta, anchor, b, &stmt, false)).collect()
}

// ---------------- multi-shard DML ----------------

fn plan_multi_shard_dml(stmt: &Statement, meta: &Metadata) -> PgResult<DistPlan> {
    let table = match stmt {
        Statement::Update(u) => &u.table,
        Statement::Delete(d) => &d.table,
        _ => return Err(PgError::internal("plan_multi_shard_dml on non-DML")),
    };
    let dt = meta.require_table(table)?.clone();
    // prune from the WHERE clause
    let buckets: Vec<usize> = match judge(stmt, meta) {
        Judgement::SingleBucket(b) => vec![b],
        Judgement::CoPartitioned(CoPartitioned { buckets: Some(pruned), .. }) => pruned,
        _ => (0..dt.shards.len()).collect(),
    };
    let tasks: PgResult<Vec<Task>> =
        buckets.into_iter().map(|b| bucket_task(meta, &dt, b, stmt, true)).collect();
    Ok(DistPlan::of(PlannerKind::Pushdown, tasks?, Merge::AffectedSum, true))
}

/// One insert per target shard: the rows of a multi-row `VALUES` list, or
/// those an INSERT..SELECT pulled to the coordinator, split by the one row
/// partitioner.
pub(crate) fn plan_multi_row_insert(
    ins: &Insert,
    rows: impl IntoIterator<Item = Vec<Expr>>,
    meta: &Metadata,
) -> PgResult<DistPlan> {
    let dt = meta.require_table(&ins.table)?;
    let buckets = super::partition_rows(meta, dt, &ins.columns, rows, |e| {
        analysis::const_datum(e)
            .ok_or_else(|| PgError::unsupported("distribution column value must be a constant"))
    })?;
    let tasks = buckets
        .into_iter()
        .map(|(b, rows)| {
            let stmt = Statement::Insert(Box::new(Insert {
                table: ins.table.clone(),
                columns: ins.columns.clone(),
                source: InsertSource::Values(rows),
                on_conflict: ins.on_conflict.clone(),
            }));
            bucket_task(meta, dt, b, &stmt, true)
        })
        .collect::<PgResult<_>>()?;
    Ok(DistPlan::of(PlannerKind::Pushdown, tasks, Merge::AffectedSum, true))
}
