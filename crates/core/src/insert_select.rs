//! Distributed INSERT .. SELECT — the three strategies of §3.8:
//!
//! 1. **co-located pushdown**: source and target shards pair up; each worker
//!    runs `INSERT INTO target_shard SELECT .. FROM source_shard` locally, in
//!    parallel (the rollup path of Figure 2 / Figure 7c);
//! 2. **repartition**: the distributed SELECT needs no merge step but the
//!    rows land in different shards: results are re-partitioned by the
//!    target's distribution column and bulk-loaded shard-wise;
//! 3. **pull to coordinator**: the SELECT requires a coordinator merge step;
//!    run it fully, then distributed-COPY the result into the target.

use crate::cluster::Cluster;
use crate::executor::SessionState;
use crate::extension::CitrusExtension;
use crate::planner::{self, rewrite, Merge, PlannerKind, Task};
use pgmini::error::{ErrorCode, PgError, PgResult};
use pgmini::session::{QueryResult, Session};
use pgmini::types::Row;
use sqlparse::ast::{Expr, Insert, InsertSource, SelectItem, Statement};
use std::sync::Arc;

/// Which strategy ran (exposed for tests and EXPLAIN-style diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertSelectStrategy {
    ColocatedPushdown,
    Repartition,
    PullToCoordinator,
}

/// Execute a distributed INSERT .. SELECT.
pub fn execute(
    ext: &CitrusExtension,
    cluster: &Arc<Cluster>,
    session: &mut Session,
    state: &mut SessionState,
    ins: &Insert,
) -> PgResult<QueryResult> {
    let InsertSource::Query(sel) = &ins.source else {
        return Err(PgError::internal("insert_select on VALUES insert"));
    };
    let meta = cluster.metadata.read_recursive();
    let target = meta.require_table(&ins.table)?.clone();
    if target.is_reference() {
        drop(meta);
        return Err(PgError::unsupported(
            "INSERT .. SELECT into a reference table from distributed sources",
        ));
    }

    // strategy selection
    let strategy = choose_strategy(&meta, &target, ins, sel)?;
    state.last_insert_select = Some(strategy);
    match strategy {
        InsertSelectStrategy::ColocatedPushdown => {
            // per-bucket task: INSERT INTO target_shard SELECT .. FROM src_shard
            let mut tasks = Vec::with_capacity(target.shards.len());
            for b in 0..target.shards.len() {
                let map = planner::bucket_name_map(&meta, b);
                let stmt = Statement::Insert(Box::new(Insert {
                    table: ins.table.clone(),
                    columns: ins.columns.clone(),
                    source: InsertSource::Query(sel.clone()),
                    on_conflict: ins.on_conflict.clone(),
                }));
                let rewritten = rewrite::rewrite_statement(&stmt, &map);
                tasks.push(Task {
                    node: planner::bucket_node_of(&meta, &target, b)?,
                    group: Some((target.colocation_id, b)),
                    stmt: std::sync::Arc::new(rewritten),
                    is_write: true,
                    shards: vec![target.shards[b]],
                });
            }
            drop(meta);
            let plan = planner::DistPlan {
                kind: PlannerKind::Pushdown,
                tasks,
                merge: Merge::AffectedSum,
                is_write: true,
                used_subplans: false,
                prep: Vec::new(),
            };
            ext.execute_plan_with_txn(session, state, &plan)
        }
        InsertSelectStrategy::Repartition | InsertSelectStrategy::PullToCoordinator => {
            drop(meta);
            // run the SELECT through the distributed pipeline
            let rows = ext.run_select_distributed(session, sel, state)?;
            // map rows to the target column order
            let n = load_rows_into_target(cluster, session, ins, rows, strategy)?;
            Ok(QueryResult::Affected(n))
        }
    }
}

fn choose_strategy(
    meta: &crate::metadata::Metadata,
    target: &crate::metadata::DistTable,
    ins: &Insert,
    sel: &sqlparse::ast::Select,
) -> PgResult<InsertSelectStrategy> {
    // does the SELECT require a merge step? aggregates without the dist
    // column in GROUP BY, DISTINCT, LIMIT, ORDER BY all force a merge
    let source_tables =
        rewrite::collect_tables(&Statement::Select(Box::new(sel.clone())));
    let source_dist: Vec<&str> = source_tables
        .iter()
        .filter(|t| meta.table(t).is_some_and(|x| !x.is_reference()))
        .map(String::as_str)
        .collect();
    if source_dist.is_empty() {
        // reference/local sources: rows must fan out; treat as repartition
        return Ok(InsertSelectStrategy::Repartition);
    }
    let colocated = source_dist
        .iter()
        .all(|t| meta.table(t).is_some_and(|x| x.colocation_id == target.colocation_id));

    let needs_merge = {
        let has_agg = sel.projection.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => {
                let mut found = false;
                expr.walk(&mut |x| {
                    if let Expr::Func(f) = x {
                        if matches!(f.name.as_str(), "count" | "sum" | "avg" | "min" | "max") {
                            found = true;
                        }
                    }
                });
                found
            }
            _ => false,
        });
        let group_has_dist = sel.group_by.iter().any(|g| {
            matches!(g, Expr::Column { name, .. }
                if source_dist.iter().any(|t| {
                    meta.table(t)
                        .and_then(|x| x.dist_column.as_ref().map(|(c, _)| c == name))
                        .unwrap_or(false)
                }))
        });
        (has_agg || !sel.group_by.is_empty()) && !group_has_dist
            || sel.limit.is_some()
            || sel.distinct
    };
    if needs_merge {
        return Ok(InsertSelectStrategy::PullToCoordinator);
    }
    if !colocated {
        return Ok(InsertSelectStrategy::Repartition);
    }
    // co-location also requires that the target's distribution column is fed
    // by a source distribution column (same hash ⇒ same bucket)
    let (dist_col, dist_idx) = target
        .dist_column
        .clone()
        .ok_or_else(|| PgError::internal("hash table without dist column"))?;
    let feed_pos = if ins.columns.is_empty() {
        dist_idx
    } else {
        match ins.columns.iter().position(|c| c == &dist_col) {
            Some(p) => p,
            None => {
                return Err(PgError::new(
                    ErrorCode::NotNullViolation,
                    format!("INSERT must include the distribution column \"{dist_col}\""),
                ))
            }
        }
    };
    let fed_by_dist_col = match sel.projection.get(feed_pos) {
        Some(SelectItem::Expr { expr: Expr::Column { name, .. }, .. }) => {
            source_dist.iter().any(|t| {
                meta.table(t)
                    .and_then(|x| x.dist_column.as_ref().map(|(c, _)| c == name))
                    .unwrap_or(false)
            })
        }
        _ => false,
    };
    if fed_by_dist_col {
        Ok(InsertSelectStrategy::ColocatedPushdown)
    } else {
        Ok(InsertSelectStrategy::Repartition)
    }
}

/// Load materialised SELECT rows into the target via the distributed COPY
/// path (the repartition / pull strategies share this data plane).
fn load_rows_into_target(
    cluster: &Arc<Cluster>,
    session: &mut Session,
    ins: &Insert,
    rows: Vec<Row>,
    strategy: InsertSelectStrategy,
) -> PgResult<u64> {
    if let Some(oc) = &ins.on_conflict {
        // ON CONFLICT upserts can't go through COPY; route row-wise inserts
        let _ = oc;
        let mut n = 0;
        for row in rows {
            let values: Vec<Expr> = row.iter().map(pgmini::expr::datum_expr).collect();
            let stmt = Statement::Insert(Box::new(Insert {
                table: ins.table.clone(),
                columns: ins.columns.clone(),
                source: InsertSource::Values(vec![values]),
                on_conflict: ins.on_conflict.clone(),
            }));
            n += session.execute_stmt(&stmt)?.affected();
        }
        return Ok(n);
    }
    let _ = strategy;
    crate::copy::distributed_copy(cluster, session, &ins.table, &ins.columns, rows)
}
