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
use super::merge::{is_aggregate_query, split_aggregation, split_concat, Split};
use super::{bucket_task, DistPlan, Merge, PlannerKind, SubplanExecutor, Task};
use crate::metadata::{Metadata, NodeId};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::types::Datum;
use sqlparse::ast::{
    Expr, Insert, InsertSource, Literal, Select, SelectItem, Statement, TableRef,
};

/// Try to plan a multi-shard statement by pushdown. Assumes all distributed
/// tables referenced share one colocation group (judged by the caller).
pub fn try_pushdown(
    stmt: &Statement,
    meta: &Metadata,
    self_node: NodeId,
    subplans: &mut dyn SubplanExecutor,
) -> PgResult<Option<DistPlan>> {
    match stmt {
        Statement::Select(sel) => {
            let mut resolver = Resolver { meta, subplans, used: false };
            let sel = resolver.select(sel)?;
            let used_subplans = resolver.used;
            match judge_select(&sel, meta) {
                // subplan resolution may leave only reference tables behind
                // (e.g. a reference-table query filtered by a distributed
                // subquery); delegate the remainder to the local replica
                Judgement::NoDistributedRelation => {
                    let mut plan = super::reference_read_plan(
                        &Statement::Select(Box::new(sel)),
                        meta,
                        self_node,
                    )?;
                    plan.used_subplans = used_subplans;
                    Ok(Some(plan))
                }
                Judgement::CoPartitioned(cp) => {
                    plan_select(&sel, meta, &cp, used_subplans).map(Some)
                }
                // the violation names itself (the "Citus does not support X" UX)
                Judgement::MustMove(reason) => Err(reason.into()),
                Judgement::SingleBucket(_) => {
                    Err(PgError::internal("a SELECT judged on its own pins no bucket"))
                }
            }
        }
        Statement::Update(_) | Statement::Delete(_) => {
            let mut resolver = Resolver { meta, subplans, used: false };
            let stmt = resolver.dml(stmt)?;
            plan_multi_shard_dml(&stmt, meta, resolver.used).map(Some)
        }
        Statement::Insert(ins) => match &ins.source {
            InsertSource::Values(rows) if rows.len() > 1 => {
                plan_multi_row_insert(ins, rows.iter().cloned(), meta).map(Some)
            }
            _ => Ok(None),
        },
        _ => Ok(None),
    }
}

// ---------------- subplans (intermediate results) ----------------

/// Materialises the subqueries the judgement lists as needing a subplan
/// ([`analysis::subplans`], [`analysis::where_subplans`]): each runs first as
/// a distributed query of its own, and its result replaces it as constants
/// (scalar, IN-list or boolean). Every other subquery stays in place and
/// runs on the shards.
struct Resolver<'p> {
    meta: &'p Metadata,
    subplans: &'p mut dyn SubplanExecutor,
    /// Whether any subplan ran.
    used: bool,
}

impl Resolver<'_> {
    /// One level and, recursively, its FROM-subqueries. Subplans run in
    /// clause order: WHERE, HAVING, the projection, then FROM.
    fn select(&mut self, sel: &Select) -> PgResult<Select> {
        let needed = analysis::subplans(sel, self.meta);
        Ok(Select {
            where_clause: sel.where_clause.as_ref().map(|w| self.expr(w, &needed)).transpose()?,
            having: sel.having.as_ref().map(|h| self.expr(h, &needed)).transpose()?,
            projection: sel
                .projection
                .iter()
                .map(|item| match item {
                    SelectItem::Expr { expr: e, alias } => {
                        Ok(SelectItem::Expr { expr: self.expr(e, &needed)?, alias: alias.clone() })
                    }
                    other => Ok(other.clone()),
                })
                .collect::<PgResult<_>>()?,
            from: sel.from.iter().map(|f| self.table_ref(f, &needed)).collect::<PgResult<_>>()?,
            distinct: sel.distinct,
            group_by: sel.group_by.clone(),
            order_by: sel.order_by.clone(),
            limit: sel.limit.clone(),
            offset: sel.offset.clone(),
            for_update: sel.for_update,
        })
    }

    /// A FROM item: subqueries are levels of their own, ON conditions belong
    /// to the level whose `needed` list is passed.
    fn table_ref(&mut self, t: &TableRef, needed: &[&Select]) -> PgResult<TableRef> {
        Ok(match t {
            TableRef::Table { .. } => t.clone(),
            TableRef::Subquery { query, alias } => {
                TableRef::Subquery { query: Box::new(self.select(query)?), alias: alias.clone() }
            }
            TableRef::Join { left, right, kind, on } => TableRef::Join {
                left: Box::new(self.table_ref(left, needed)?),
                right: Box::new(self.table_ref(right, needed)?),
                kind: *kind,
                on: on.as_ref().map(|c| self.expr(c, needed)).transpose()?,
            },
        })
    }

    /// An UPDATE or DELETE with its `WHERE` subplans resolved.
    fn dml(&mut self, stmt: &Statement) -> PgResult<Statement> {
        Ok(match stmt {
            Statement::Update(u) => {
                let mut u2 = (**u).clone();
                u2.where_clause = self.where_clause(&u.where_clause)?;
                Statement::Update(Box::new(u2))
            }
            Statement::Delete(d) => {
                let mut d2 = (**d).clone();
                d2.where_clause = self.where_clause(&d.where_clause)?;
                Statement::Delete(Box::new(d2))
            }
            other => other.clone(),
        })
    }

    fn where_clause(&mut self, w: &Option<Expr>) -> PgResult<Option<Expr>> {
        w.as_ref().map(|w| self.expr(w, &analysis::where_subplans(w, self.meta))).transpose()
    }

    /// Run an uncorrelated subplan; correlation surfaces as an unresolvable
    /// column on the workers, reported as the unsupported-feature error Citus
    /// 9.5 raises for correlated subqueries.
    fn run(&mut self, sel: &Select) -> PgResult<Vec<pgmini::types::Row>> {
        self.used = true;
        self.subplans.run_distributed_subquery(sel).map_err(|e| {
            if e.code == ErrorCode::UndefinedColumn {
                PgError::unsupported(format!(
                    "correlated subqueries are not supported ({})",
                    e.message
                ))
            } else {
                e
            }
        })
    }

    /// `e` with the subqueries in `needed` replaced by their results.
    fn expr(&mut self, e: &Expr, needed: &[&Select]) -> PgResult<Expr> {
        let is_needed = |q: &Select| needed.iter().any(|n| std::ptr::eq(*n, q));
        Ok(match e {
            Expr::ScalarSubquery(q) if is_needed(q) => {
                let rows = self.run(q)?;
                match rows.len() {
                    0 => Expr::Literal(Literal::Null),
                    1 => datum_expr(&rows[0][0]),
                    _ => {
                        return Err(PgError::new(
                            ErrorCode::Syntax,
                            "more than one row returned by a subquery used as an expression",
                        ))
                    }
                }
            }
            Expr::InSubquery { expr, subquery, negated } if is_needed(subquery) => {
                let rows = self.run(subquery)?;
                let inner = self.expr(expr, needed)?;
                if rows.is_empty() {
                    Expr::Literal(Literal::Bool(*negated))
                } else {
                    Expr::InList {
                        expr: Box::new(inner),
                        list: rows.iter().map(|r| datum_expr(&r[0])).collect(),
                        negated: *negated,
                    }
                }
            }
            Expr::Exists { subquery, negated } if is_needed(subquery) => {
                let rows = self.run(subquery)?;
                Expr::Literal(Literal::Bool((!rows.is_empty()) != *negated))
            }
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.expr(left, needed)?),
                op: *op,
                right: Box::new(self.expr(right, needed)?),
            },
            Expr::Unary { op, expr } => {
                Expr::Unary { op: *op, expr: Box::new(self.expr(expr, needed)?) }
            }
            other => other.clone(),
        })
    }
}

fn datum_expr(d: &Datum) -> Expr {
    match d {
        Datum::Null => Expr::Literal(Literal::Null),
        Datum::Bool(b) => Expr::Literal(Literal::Bool(*b)),
        Datum::Int(v) => Expr::Literal(Literal::Int(*v)),
        Datum::Float(v) => Expr::Literal(Literal::Float(*v)),
        other => Expr::Literal(Literal::String(other.to_text())),
    }
}

// ---------------- SELECT planning ----------------

fn plan_select(
    sel: &Select,
    meta: &Metadata,
    cp: &CoPartitioned,
    used_subplans: bool,
) -> PgResult<DistPlan> {
    // anchor table for placements
    let anchor = meta.require_table(&cp.anchor)?.clone();
    // shard pruning from the level's constraints
    let buckets: Vec<usize> =
        cp.buckets.clone().unwrap_or_else(|| (0..anchor.shards.len()).collect());

    let has_agg = is_aggregate_query(sel);
    let full_pushdown = cp.merge_need(sel) != Some(MergeNeed::Aggregate);

    let read_plan = |split: Split| -> PgResult<DistPlan> {
        let tasks = select_tasks(split.worker, meta, &anchor, &buckets)?;
        let plan = DistPlan::of(PlannerKind::Pushdown, tasks, split.merge, false);
        Ok(DistPlan { used_subplans, ..plan })
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

fn plan_multi_shard_dml(
    stmt: &Statement,
    meta: &Metadata,
    used_subplans: bool,
) -> PgResult<DistPlan> {
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
    let plan = DistPlan::of(PlannerKind::Pushdown, tasks?, Merge::AffectedSum, true);
    Ok(DistPlan { used_subplans, ..plan })
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
